package sketch_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

// TestFoldExactBeyondSmallValues: value histograms are exact at any
// magnitude — large non-pointer values survive FromProfile and the sketch
// codec unchanged — and pointer variables keep no value or delta histogram,
// only run lengths.
func TestFoldExactBeyondSmallValues(t *testing.T) {
	big := []int64{1<<20 + 1, -(1<<20 + 3), 3 << 30, 1<<20 + 1}
	p := &sampler.Profile{
		Interval: 10,
		Hist:     []int64{0, 4},
		Layout: []sampler.LayoutEntry{
			{Func: "f", Name: "x"},
			{Func: "f", Name: "p", IsPointer: true},
		},
	}
	for i, v := range big {
		tick := int64(10 * (i + 1))
		p.Samples = append(p.Samples,
			sampler.Sample{Layout: 0, PC: 1, Value: v, Tick: tick},
			sampler.Sample{Layout: 1, PC: 1, Value: 0x7f0000 + int64(i), Tick: tick, Ptr: true})
	}
	blob, err := profilefmt.MarshalSketch(sketch.FromProfile(p))
	if err != nil {
		t.Fatal(err)
	}
	sk, err := profilefmt.UnmarshalSketch(blob)
	if err != nil {
		t.Fatal(err)
	}

	x := sk.Var("f\x00x")
	if x == nil {
		t.Fatal("no summary for f.x")
	}
	series := []float64{float64(1<<20 + 1), float64(-(1<<20 + 3)), float64(3 << 30), float64(1<<20 + 1)}
	wantValues := append([]float64(nil), series...)
	sort.Float64s(wantValues)
	if got := expand(x.Values); !reflect.DeepEqual(got, wantValues) {
		t.Errorf("Values expand to %v, want %v", got, wantValues)
	}
	wantDeltas := stats.ChangeDeltas(series)
	sort.Float64s(wantDeltas)
	if got := expand(x.Deltas); !reflect.DeepEqual(got, wantDeltas) {
		t.Errorf("Deltas expand to %v, want %v", got, wantDeltas)
	}
	if x.Min != float64(-(1<<20+3)) || x.Max != float64(3<<30) {
		t.Errorf("moments (%v, %v), want (%v, %v)", x.Min, x.Max, float64(-(1<<20 + 3)), float64(3<<30))
	}

	ptr := sk.Var("f\x00p")
	if ptr == nil {
		t.Fatal("no summary for f.p")
	}
	if len(ptr.Values) != 0 || len(ptr.Deltas) != 0 {
		t.Errorf("pointer summary carries Values %v / Deltas %v, want none", ptr.Values, ptr.Deltas)
	}
	if ptr.Count != 4 || ptr.NumRuns != 4 || ptr.Runs.Total() != 4 {
		t.Errorf("pointer summary Count %d NumRuns %d Runs %v, want 4 single-tick runs", ptr.Count, ptr.NumRuns, ptr.Runs)
	}
}

// expand lists a histogram's observations in ascending order, each value
// repeated by its count.
func expand(h sketch.Hist) []float64 {
	out := make([]float64, 0, h.Total())
	for _, e := range h {
		for c := e.Count; c > 0; c-- {
			out = append(out, e.Key)
		}
	}
	return out
}

func randSeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		// Small integral values with occasional runs, like real
		// tick-collapsed series.
		if i > 0 && rng.Intn(3) == 0 {
			out[i] = out[i-1]
		} else {
			out[i] = float64(rng.Intn(2000) - 300)
		}
	}
	return out
}

// TestHistMergeEqualsBatch: merging per-shard histograms equals counting
// the concatenated raw series — the core mergeability property.
func TestHistMergeEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a := randSeries(rng, rng.Intn(40))
		b := randSeries(rng, rng.Intn(40))
		merged := sketch.MergeHist(sketch.HistOf(a), sketch.HistOf(b))
		batch := sketch.HistOf(append(append([]float64(nil), a...), b...))
		if !reflect.DeepEqual(merged, batch) {
			t.Fatalf("merge != batch:\nmerge %v\nbatch %v", merged, batch)
		}
	}
}

func TestHistMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 200; i++ {
		a := sketch.HistOf(randSeries(rng, rng.Intn(30)))
		b := sketch.HistOf(randSeries(rng, rng.Intn(30)))
		c := sketch.HistOf(randSeries(rng, rng.Intn(30)))
		ab_c := sketch.MergeHist(sketch.MergeHist(a, b), c)
		a_bc := sketch.MergeHist(a, sketch.MergeHist(b, c))
		if !reflect.DeepEqual(ab_c, a_bc) {
			t.Fatalf("merge not associative")
		}
		if !reflect.DeepEqual(sketch.MergeHist(a, b), sketch.MergeHist(b, a)) {
			t.Fatalf("merge not commutative")
		}
	}
}

// TestHistExpandSortedAndComplete: HistOf keeps the Hist invariants
// (strictly ascending values, positive counts) and loses no observation, so
// its counts expand to the sorted series — the multiset the statistics
// kernels read.
func TestHistExpandSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 100; i++ {
		s := randSeries(rng, rng.Intn(50))
		h := sketch.HistOf(s)
		if h.Total() != int64(len(s)) {
			t.Fatalf("HistOf lost observations: %d vs %d", h.Total(), len(s))
		}
		for j, e := range h {
			if e.Count <= 0 || j > 0 && e.Key <= h[j-1].Key {
				t.Fatalf("HistOf pair %d = %v breaks the Hist invariants: %v", j, e, h)
			}
		}
		want := append([]float64(nil), s...)
		sort.Float64s(want)
		if ex := expand(h); len(ex) > 0 && !reflect.DeepEqual(ex, want) {
			t.Fatalf("HistOf counts expand to %v, want the sorted series %v", ex, want)
		}
	}
}

func mkVar(rng *rand.Rand, fn, name string, n int) sketch.VarSummary {
	series := randSeries(rng, n)
	vs := sketch.VarSummary{Func: fn, Name: name, Count: int64(len(series))}
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
	for i := 0; i < rng.Intn(5); i++ {
		vs.PCs = append(vs.PCs, int32(i*3+rng.Intn(2)))
	}
	dedupPCs(&vs)
	return vs
}

func dedupPCs(vs *sketch.VarSummary) {
	seen := map[int32]bool{}
	var out []int32
	for _, pc := range vs.PCs {
		if !seen[pc] {
			seen[pc] = true
			out = append(out, pc)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	vs.PCs = out
}

func mkProfile(rng *rand.Rand, nvars int) *sketch.Profile {
	p := &sketch.Profile{
		Interval:   37,
		TotalTicks: int64(rng.Intn(100000)),
		NumAlarms:  int64(rng.Intn(1000)),
		HistLen:    256,
	}
	hist, units := map[int32]int64{}, map[int32]int64{}
	for i := 0; i < rng.Intn(20); i++ {
		hist[int32(rng.Intn(256))] += int64(rng.Intn(50) + 1)
	}
	for i := 0; i < rng.Intn(20); i++ {
		units[int32(rng.Intn(256))] += int64(rng.Intn(50) + 1)
	}
	p.Hist, p.UnitsByPC = pcCountsOf(hist), pcCountsOf(units)
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	funcs := []string{"f", "g", "h"}
	seen := map[string]bool{}
	for i := 0; i < nvars; i++ {
		fn := funcs[rng.Intn(len(funcs))]
		nm := names[rng.Intn(len(names))]
		if seen[fn+"\x00"+nm] {
			continue
		}
		seen[fn+"\x00"+nm] = true
		p.Vars = append(p.Vars, mkVar(rng, fn, nm, rng.Intn(30)))
	}
	sortVars(p)
	return p
}

func sortVars(p *sketch.Profile) {
	for i := 1; i < len(p.Vars); i++ {
		for j := i; j > 0 && p.Vars[j].Key() < p.Vars[j-1].Key(); j-- {
			p.Vars[j], p.Vars[j-1] = p.Vars[j-1], p.Vars[j]
		}
	}
}

func mergeOf(ps ...*sketch.Profile) *sketch.Profile {
	out := ps[0].Clone()
	for _, p := range ps[1:] {
		out.Merge(p)
	}
	return out
}

// TestProfileMergeAssociativeCommutative: (a+b)+c == a+(b+c) and a+b == b+a
// for full profile sketches, including the key-ordered variable lists.
func TestProfileMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 50; i++ {
		a, b, c := mkProfile(rng, 6), mkProfile(rng, 6), mkProfile(rng, 6)
		left := mergeOf(mergeOf(a, b), c)
		right := mergeOf(a, mergeOf(b, c))
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("Profile.Merge not associative:\n%+v\n%+v", left, right)
		}
		ab, ba := mergeOf(a, b), mergeOf(b, a)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("Profile.Merge not commutative")
		}
		// Inputs must not be mutated by merging.
		if !reflect.DeepEqual(a, mkProfileClone(a)) {
			t.Fatal("Merge mutated an input via aliasing")
		}
	}
}

func mkProfileClone(p *sketch.Profile) *sketch.Profile { return p.Clone() }

func TestVarSummaryMergeMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 100; i++ {
		sa := randSeries(rng, rng.Intn(20))
		sb := randSeries(rng, rng.Intn(20))
		a := summaryOf(sa)
		b := summaryOf(sb)
		a.Merge(&b)
		both := append(append([]float64(nil), sa...), sb...)
		if a.Count != int64(len(both)) {
			t.Fatalf("Count %d != %d", a.Count, len(both))
		}
		if len(both) > 0 {
			lo, hi, _ := stats.MinMax(both)
			var sum float64
			for _, v := range both {
				sum += v
			}
			if a.Min != lo || a.Max != hi || a.Sum != sum {
				t.Fatalf("moments: got (%v,%v,%v) want (%v,%v,%v)", a.Min, a.Max, a.Sum, lo, hi, sum)
			}
		}
		if !reflect.DeepEqual(a.Values, sketch.HistOf(both)) {
			t.Fatal("merged Values != batch histogram")
		}
	}
}

func summaryOf(series []float64) sketch.VarSummary {
	vs := sketch.VarSummary{Func: "f", Name: "x", Count: int64(len(series))}
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
	return vs
}

func TestProfileVarLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := mkProfile(rng, 8)
	for i := range p.Vars {
		v := p.Var(p.Vars[i].Key())
		if v != &p.Vars[i] {
			t.Fatalf("Var(%q) lookup failed", p.Vars[i].Key())
		}
	}
	if p.Var("zzz\x00nope") != nil {
		t.Fatal("Var of unknown key should be nil")
	}
}
