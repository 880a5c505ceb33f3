package profilefmt_test

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vprof/internal/profilefmt"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

func randSketchSeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i > 0 && rng.Intn(3) == 0 {
			out[i] = out[i-1]
		} else {
			out[i] = float64(rng.Intn(2000) - 300)
		}
	}
	return out
}

// pcCountsOf lists a pc -> count map as an ascending sketch.PCCounts (nil
// when empty).
func pcCountsOf(m map[int32]int64) sketch.PCCounts {
	var out sketch.PCCounts
	for pc, n := range m {
		out = append(out, sketch.Pair[int32]{Key: pc, Count: n})
	}
	slices.SortFunc(out, func(a, b sketch.Pair[int32]) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

func randSketch(rng *rand.Rand) *sketch.Profile {
	p := &sketch.Profile{
		BlobID:     "blob-test",
		Interval:   37,
		TotalTicks: int64(rng.Intn(100000)),
		NumAlarms:  int64(rng.Intn(500)),
		HistLen:    128,
	}
	hist, units := map[int32]int64{}, map[int32]int64{}
	for i := 0; i < rng.Intn(15); i++ {
		hist[int32(rng.Intn(128))] += int64(rng.Intn(40) + 1)
	}
	for i := 0; i < rng.Intn(15); i++ {
		units[int32(rng.Intn(128))] += int64(rng.Intn(40) + 1)
	}
	p.Hist, p.UnitsByPC = pcCountsOf(hist), pcCountsOf(units)
	keys := []struct{ fn, nm string }{
		{"f", "a"}, {"f", "b"}, {"g", "a"}, {"", "glob"},
	}
	for _, k := range keys[:1+rng.Intn(len(keys))] {
		series := randSketchSeries(rng, rng.Intn(25))
		vs := sketch.VarSummary{
			Func: k.fn, Name: k.nm,
			IsPointer: rng.Intn(4) == 0,
			Count:     int64(len(series)),
		}
		if len(series) > 0 {
			vs.Min, vs.Max, _ = stats.MinMax(series)
			for _, v := range series {
				vs.Sum += v
			}
		}
		vs.Values = sketch.HistOf(series)
		vs.Deltas = sketch.HistOf(stats.ChangeDeltas(series))
		runs := stats.RunLengths(series)
		vs.Runs = sketch.HistOf(runs)
		vs.NumRuns = int64(len(runs))
		_, vs.MaxRun, _ = stats.MinMax(runs)
		for pc := int32(0); pc < 128 && len(vs.PCs) < 6; pc += int32(13 + rng.Intn(9)) {
			vs.PCs = append(vs.PCs, pc)
		}
		p.Vars = append(p.Vars, vs)
	}
	// Vars must be in key order; the fixture list above already is for any
	// prefix except the global ("" sorts first), so sort explicitly.
	for i := 1; i < len(p.Vars); i++ {
		for j := i; j > 0 && p.Vars[j].Key() < p.Vars[j-1].Key(); j-- {
			p.Vars[j], p.Vars[j-1] = p.Vars[j-1], p.Vars[j]
		}
	}
	return p
}

func TestSketchRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		want := randSketch(rng)
		blob, err := profilefmt.MarshalSketch(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := profilefmt.UnmarshalSketch(blob)
		if err != nil {
			t.Fatalf("roundtrip decode: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("roundtrip mismatch:\nwant %+v\ngot  %+v", want, got)
		}
	}
}

// TestSketchEncodingCanonical: one sketch, one byte representation —
// re-encoding a decoded sketch reproduces the input exactly, and encoding
// is deterministic across runs.
func TestSketchEncodingCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		s := randSketch(rng)
		a, err := profilefmt.MarshalSketch(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := profilefmt.MarshalSketch(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("encoding not deterministic")
		}
		dec, err := profilefmt.UnmarshalSketch(a)
		if err != nil {
			t.Fatal(err)
		}
		c, err := profilefmt.MarshalSketch(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, c) {
			t.Fatal("re-encoding a decoded sketch changed bytes")
		}
	}
}

func TestSketchDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := randSketch(rng)
	blob, err := profilefmt.MarshalSketch(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := profilefmt.UnmarshalSketch(append(blob, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := profilefmt.UnmarshalSketch(blob[:len(blob)-1]); err == nil {
		t.Error("truncated sketch accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := profilefmt.UnmarshalSketch(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestSketchDecodeRejectsNonCanonicalFlags: a variable's flag word other
// than 0 or 1 would re-encode as 1, so two frames would decode to one
// sketch (found by FuzzSketchDecode).
func TestSketchDecodeRejectsNonCanonicalFlags(t *testing.T) {
	s := &sketch.Profile{BlobID: "b", HistLen: 4, Vars: []sketch.VarSummary{{Func: "f", Name: "v", IsPointer: true}}}
	blob, err := profilefmt.MarshalSketch(s)
	if err != nil {
		t.Fatal(err)
	}
	// header, blob ID, five counters, two empty pc-count maps, two names
	flags := 8 + (4 + 1) + 5*8 + 8 + 8 + (4 + 1) + (4 + 1)
	if blob[flags] != 1 {
		t.Fatalf("flag word not at offset %d", flags)
	}
	blob[flags] = 2
	if _, err := profilefmt.UnmarshalSketch(blob); err == nil {
		t.Fatal("flag word 2 accepted")
	}
}

func FuzzSketchDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4; i++ {
		blob, err := profilefmt.MarshalSketch(randSketch(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte("VPRS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := profilefmt.UnmarshalSketch(data)
		if err != nil {
			return
		}
		// Any accepted sketch must be canonical: re-encoding reproduces
		// the input bytes, and no histogram totals more observations than
		// a profile can hold.
		re, err := profilefmt.MarshalSketch(s)
		if err != nil {
			t.Fatalf("re-encode of accepted sketch failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted sketch is not canonical: %d vs %d bytes", len(re), len(data))
		}
		for i := range s.Vars {
			for _, h := range []sketch.Hist{s.Vars[i].Values, s.Vars[i].Deltas, s.Vars[i].Runs} {
				if h.Total() > profilefmt.MaxSamples {
					t.Fatalf("accepted histogram totals %d observations", h.Total())
				}
			}
		}
	})
}
