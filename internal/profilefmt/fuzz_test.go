package profilefmt_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vprof/internal/profilefmt"
	"vprof/internal/profilefmt/profilefmttest"
	"vprof/internal/sampler"
)

// fuzzSeeds are valid encodings of the shared test profile: the full bundle
// in both sample-record versions plus each stand-alone section, so the
// fuzzer starts from well-formed input and mutates toward the interesting
// truncation/corruption boundaries; and a bundle of minimum-size records
// one sample over the bundle limit.
func fuzzSeeds(f *testing.F) {
	p := sampleProfile()
	blob, err := profilefmt.Marshal(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	var hb, vb, lb bytes.Buffer
	if err := profilefmt.EncodeHist(&hb, p); err != nil {
		f.Fatal(err)
	}
	if err := profilefmt.EncodeSamples(&vb, p); err != nil {
		f.Fatal(err)
	}
	if err := profilefmt.EncodeLayout(&lb, p); err != nil {
		f.Fatal(err)
	}
	f.Add(hb.Bytes())
	f.Add(vb.Bytes())
	f.Add(lb.Bytes())
	// Truncations of the bundle exercise every mid-record EOF path.
	for _, n := range []int{0, 3, 7, 8, 15, len(blob) / 2, len(blob) - 1} {
		if n <= len(blob) {
			f.Add(blob[:n])
		}
	}
	// A bundle with trailing garbage must be rejected, not accepted.
	f.Add(append(append([]byte{}, blob...), 0xde, 0xad))
	f.Add(profilefmttest.MarshalV1(p))
	f.Add(profilefmttest.MinimalBundle(3))
	f.Add(profilefmttest.MinimalBundle(profilefmt.MaxBundleSamples + 1))
}

// sampleVersion is the sample-record version of a bundle that Unmarshal
// decoded to p: the histogram section before it re-encodes to the bytes it
// was read from.
func sampleVersion(t *testing.T, bundle []byte, p *sampler.Profile) uint32 {
	var hist bytes.Buffer
	if err := profilefmt.EncodeHist(&hist, p); err != nil {
		t.Fatal(err)
	}
	at := 8 + hist.Len() + 4 // bundle header, histogram, sample magic
	return binary.LittleEndian.Uint32(bundle[at:])
}

// FuzzDecode asserts that no decode path panics or over-allocates on
// arbitrary input (the ingestion endpoint feeds untrusted uploads straight
// into these decoders), that anything Unmarshal accepts survives a
// re-encode/re-decode round trip, and that a version-2 bundle it accepts
// re-encodes to the same bytes: each profile has one encoding.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := profilefmt.Unmarshal(data); err == nil {
			if err := profilefmt.Validate(p); err != nil {
				t.Fatalf("Unmarshal accepted a profile Validate rejects: %v", err)
			}
			blob, err := profilefmt.Marshal(p)
			if err != nil {
				t.Fatalf("re-encode of accepted profile failed: %v", err)
			}
			if v := sampleVersion(t, data, p); v == profilefmt.SampleVersion && !bytes.Equal(blob, data) {
				t.Fatalf("accepted version-%d bundle re-encodes to different bytes", v)
			}
			q, err := profilefmt.Unmarshal(blob)
			if err != nil {
				t.Fatalf("re-decode of re-encoded profile failed: %v", err)
			}
			assertEqualProfiles(t, p, q)
		}
		// The stand-alone section decoders must be panic-free too.
		if p, err := profilefmt.DecodeHist(bytes.NewReader(data)); err == nil {
			_ = profilefmt.DecodeSamples(bytes.NewReader(data), p)
			_ = profilefmt.DecodeLayout(bytes.NewReader(data), p)
		} else {
			shell := &sampler.Profile{}
			_ = profilefmt.DecodeSamples(bytes.NewReader(data), shell)
			_ = profilefmt.DecodeLayout(bytes.NewReader(data), shell)
		}
	})
}
