// Package profilefmttest builds profile bundles that profilefmt.Marshal no
// longer writes, for tests: version-1 bundles, whose value samples are
// eight int64s each, as older agents pushed and older stores hold them,
// and bundles of minimum-size version-2 records at any sample count.
package profilefmttest

import (
	"bytes"
	"encoding/binary"

	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
)

var le = binary.LittleEndian

// MarshalV1 encodes p as a bundle with a version-1 sample section: the
// bytes Marshal wrote before the version-2 records.
func MarshalV1(p *sampler.Profile) []byte {
	return appendLayout(append(bundleHead(p), SamplesV1(p)...), p)
}

// SamplesV1 is p's value-sample section in version 1, as a gmon_var file
// written before the version-2 records holds it.
func SamplesV1(p *sampler.Profile) []byte {
	b := le.AppendUint32([]byte(profilefmt.MagicVar), 1)
	b = le.AppendUint64(b, uint64(len(p.Samples)))
	for _, s := range p.Samples {
		ptr := 0
		if s.Ptr {
			ptr = 1
		}
		for _, v := range []int64{int64(s.Layout), int64(s.VarNode), int64(s.PC), int64(s.StackDepth),
			s.Value, int64(ptr), s.Tick, int64(s.Link)} {
			b = le.AppendUint64(b, uint64(v))
		}
	}
	return b
}

// MinimalBundle is a version-2 bundle of n samples of 7 bytes each, every
// field zero (a sample of layout entry 0 at pc 0 whose link is -1): the
// most samples a bundle of its size can carry. It is valid for n up to
// profilefmt.MaxBundleSamples.
func MinimalBundle(n int) []byte {
	p := &sampler.Profile{
		File:   "min.vp",
		Hist:   []int64{1},
		Layout: []sampler.LayoutEntry{{Func: "f", Name: "v"}},
	}
	b := bundleHead(p)
	b = le.AppendUint32(append(b, profilefmt.MagicVar...), profilefmt.SampleVersion)
	b = le.AppendUint64(b, uint64(n))
	b = append(b, make([]byte, 7*n)...)
	return appendLayout(b, p)
}

// bundleHead is a bundle header and p's histogram section.
func bundleHead(p *sampler.Profile) []byte {
	var hist bytes.Buffer
	if err := profilefmt.EncodeHist(&hist, p); err != nil {
		panic(err)
	}
	b := le.AppendUint32([]byte(profilefmt.MagicBundle), profilefmt.Version)
	return append(b, hist.Bytes()...)
}

func appendLayout(b []byte, p *sampler.Profile) []byte {
	var layout bytes.Buffer
	if err := profilefmt.EncodeLayout(&layout, p); err != nil {
		panic(err)
	}
	return append(b, layout.Bytes()...)
}
