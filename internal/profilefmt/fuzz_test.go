package profilefmt_test

import (
	"bytes"
	"testing"

	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
)

// fuzzSeeds are valid encodings of the shared test profile: the full bundle
// plus each stand-alone section, so the fuzzer starts from well-formed input
// and mutates toward the interesting truncation/corruption boundaries.
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
}

// FuzzDecode asserts that no decode path panics or over-allocates on
// arbitrary input (the ingestion endpoint feeds untrusted uploads straight
// into these decoders), and that anything Unmarshal accepts survives a
// re-encode/re-decode round trip.
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
