package sketch_test

// The map fold: FromProfile as it was written before sketches became
// ascending arrays, one map operation per sample. It no longer ships, but it
// stays the reference the array fold is checked against: on run 0 of every
// issue, on randomized multi-process profiles, on edge cases, and on any
// bundle FuzzFold makes profilefmt accept.

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

// oracleFold folds p with maps and lists the result in the sketch's array
// form.
func oracleFold(p *sampler.Profile) *sketch.Profile {
	hist := map[int32]int64{}
	for pc, n := range p.Hist {
		if n != 0 {
			hist[int32(pc)] = n
		}
	}
	units := map[int32]int64{}
	type unit struct {
		tick int64
		pc   int32
	}
	seen := map[unit]bool{}
	for _, smp := range p.Samples {
		u := unit{smp.Tick, smp.PC}
		if !seen[u] {
			seen[u] = true
			units[smp.PC]++
		}
	}
	s := &sketch.Profile{
		Interval:   p.Interval,
		TotalTicks: p.TotalTicks,
		NumAlarms:  p.NumAlarms,
		HistLen:    int64(len(p.Hist)),
		Hist:       pcCountsOf(hist),
		UnitsByPC:  pcCountsOf(units),
	}

	type varFold struct {
		series   []float64
		lastTick int64
		pcs      map[int32]bool
	}
	folds := make([]varFold, len(p.Layout))
	for i := range folds {
		folds[i].lastTick = -1
	}
	for _, smp := range p.Samples {
		if smp.Layout < 0 || int(smp.Layout) >= len(folds) {
			continue
		}
		f := &folds[smp.Layout]
		if f.pcs == nil {
			f.pcs = map[int32]bool{}
		}
		f.pcs[smp.PC] = true
		if smp.Tick != f.lastTick {
			f.lastTick = smp.Tick
			f.series = append(f.series, float64(smp.Value))
		}
	}
	folded := make(map[string]bool, len(p.Layout))
	s.Vars = make([]sketch.VarSummary, 0, len(p.Layout))
	for i, l := range p.Layout {
		key := l.Func + "\x00" + l.Name
		if folded[key] {
			continue
		}
		folded[key] = true
		s.Vars = append(s.Vars, oracleSummary(l, folds[i].series, folds[i].pcs))
	}
	sort.Slice(s.Vars, func(i, j int) bool { return s.Vars[i].Key() < s.Vars[j].Key() })
	return s
}

func oracleSummary(l sampler.LayoutEntry, series []float64, pcs map[int32]bool) sketch.VarSummary {
	vs := sketch.VarSummary{Func: l.Func, Name: l.Name, IsPointer: l.IsPointer}
	vs.Count = int64(len(series))
	if len(series) > 0 {
		vs.Min, vs.Max, _ = stats.MinMax(series)
		for _, v := range series {
			vs.Sum += v
		}
	}
	if !l.IsPointer {
		vs.Values = oracleHist(series)
		vs.Deltas = oracleHist(stats.ChangeDeltas(series))
	}
	runs := stats.RunLengths(series)
	vs.Runs = oracleHist(runs)
	vs.NumRuns = int64(len(runs))
	_, vs.MaxRun, _ = stats.MinMax(runs)
	for pc := range pcs {
		vs.PCs = append(vs.PCs, pc)
	}
	slices.Sort(vs.PCs)
	return vs
}

// oracleHist counts a series through a value -> count map.
func oracleHist(series []float64) sketch.Hist {
	m := map[float64]int64{}
	for _, v := range series {
		m[v]++
	}
	var h sketch.Hist
	for v, n := range m {
		h = append(h, sketch.Pair[float64]{Key: v, Count: n})
	}
	slices.SortFunc(h, func(a, b sketch.Pair[float64]) int { return cmp.Compare(a.Key, b.Key) })
	return h
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

func checkFold(t *testing.T, what string, p *sampler.Profile) {
	t.Helper()
	got, want := sketch.FromProfile(p), oracleFold(p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: fold differs from the map fold:\ngot  %+v\nwant %+v", what, got, want)
	}
}

// TestFoldMatchesOracleIssues: run 0 of every issue, normal and buggy
// (b8's profiles merge three processes).
func TestFoldMatchesOracleIssues(t *testing.T) {
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			b, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			np, _ := b.ProfileNormal(0)
			checkFold(t, "normal", np)
			bp, _ := b.ProfileBuggy(0)
			checkFold(t, "buggy", bp)
		})
	}
}

// randProfile builds a profile of nproc process blocks, each restarting
// its clock at tick 0 the way merged multi-process profiles do, so the same
// (tick, pc) unit recurs across blocks. Some layout entries repeat a
// variable, some are pointers, and a few samples name no layout entry.
func randProfile(rng *rand.Rand, nproc int) *sampler.Profile {
	histLen := 1 + rng.Intn(200)
	p := &sampler.Profile{Interval: 7, TotalTicks: int64(rng.Intn(1 << 20)), NumAlarms: int64(rng.Intn(1000))}
	p.Hist = make([]int64, histLen)
	for i := 0; i < rng.Intn(40); i++ {
		p.Hist[rng.Intn(histLen)] += int64(rng.Intn(9))
	}
	funcs, names := []string{"f", "g", ""}, []string{"x", "y", "z"}
	for i := rng.Intn(8); i >= 0; i-- {
		p.Layout = append(p.Layout, sampler.LayoutEntry{
			Func: funcs[rng.Intn(len(funcs))], Name: names[rng.Intn(len(names))], IsPointer: rng.Intn(4) == 0,
		})
	}
	for proc := 0; proc < nproc; proc++ {
		tick := int64(0)
		for i := rng.Intn(300); i > 0; i-- {
			tick += int64(rng.Intn(3)) // equal ticks: one alarm, several samples
			layout := int32(rng.Intn(len(p.Layout) + 1))
			if rng.Intn(20) == 0 {
				layout = -1
			}
			p.Samples = append(p.Samples, sampler.Sample{
				Layout: layout,
				PC:     int32(rng.Intn(histLen)),
				Value:  int64(rng.Intn(7) - 3),
				Tick:   tick,
			})
		}
	}
	return p
}

func TestFoldMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 500; i++ {
		checkFold(t, "random", randProfile(rng, 1+rng.Intn(4)))
	}
}

func TestFoldMatchesOracleEdgeCases(t *testing.T) {
	checkFold(t, "empty", &sampler.Profile{})
	checkFold(t, "hist only", &sampler.Profile{Interval: 3, Hist: []int64{0, 5, 0, 2}})
	checkFold(t, "layout without samples", &sampler.Profile{
		Hist:   []int64{1},
		Layout: []sampler.LayoutEntry{{Func: "f", Name: "x"}, {Func: "f", Name: "p", IsPointer: true}},
	})
	checkFold(t, "out-of-range layout", &sampler.Profile{
		Hist:   []int64{1, 1},
		Layout: []sampler.LayoutEntry{{Func: "f", Name: "x"}},
		Samples: []sampler.Sample{
			{Layout: 1, PC: 1, Value: 4, Tick: 10},
			{Layout: -1, PC: 0, Value: 4, Tick: 10},
			{Layout: 0, PC: 1, Value: 2, Tick: 20},
		},
	})
	checkFold(t, "pointer", &sampler.Profile{
		Hist:   []int64{0, 3},
		Layout: []sampler.LayoutEntry{{Func: "f", Name: "p", IsPointer: true}},
		Samples: []sampler.Sample{
			{Layout: 0, PC: 1, Value: 0x7f00, Tick: 10, Ptr: true},
			{Layout: 0, PC: 1, Value: 0x7f00, Tick: 20, Ptr: true},
			{Layout: 0, PC: 1, Value: 0x7f08, Tick: 30, Ptr: true},
		},
	})
	checkFold(t, "wide PC range", &sampler.Profile{
		Hist:   make([]int64, 1000),
		Layout: []sampler.LayoutEntry{{Func: "f", Name: "x"}},
		Samples: []sampler.Sample{
			{Layout: 0, PC: 999, Value: 1, Tick: 1},
			{Layout: 0, PC: 0, Value: 1, Tick: 2},
			{Layout: 0, PC: 64, Value: 1, Tick: 2},
			{Layout: 0, PC: 63, Value: 1, Tick: 3},
		},
	})
}

// FuzzFold: for any bundle profilefmt accepts, the array fold equals the
// map fold, and the sketch survives its codec unchanged.
func FuzzFold(f *testing.F) {
	rng := rand.New(rand.NewSource(49))
	for i := 0; i < 4; i++ {
		// Seeds must decode: drop the samples that name no layout entry.
		p := randProfile(rng, 1+i)
		p.Samples = slices.DeleteFunc(p.Samples, func(s sampler.Sample) bool {
			return s.Layout < 0 || int(s.Layout) >= len(p.Layout)
		})
		blob, err := profilefmt.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := profilefmt.Unmarshal(data)
		if err != nil {
			return
		}
		checkFold(t, "fuzz", p)
		sk := sketch.FromProfile(p)
		frame, err := profilefmt.MarshalSketch(sk)
		if err != nil {
			t.Fatal(err)
		}
		back, err := profilefmt.UnmarshalSketch(frame)
		if err != nil {
			t.Fatalf("folded sketch does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, sk) {
			t.Fatalf("sketch codec round trip changed the sketch:\ngot  %+v\nwant %+v", back, sk)
		}
	})
}
