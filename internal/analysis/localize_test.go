package analysis_test

// The per-variable copy path of block localization: samplesByVar,
// tickSeries and abnormalPositions as they were written before the
// localization walked an index of the trail in place. They no longer ship,
// but they stay the reference the walk is checked against, order and
// multiplicity of the returned PCs included.

import (
	"reflect"
	"sort"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
)

// oracleAbnormalPCs identifies the trail's samples that are anomalous along the
// given dimension against the normal range [lo, hi] and returns their PCs
// (with multiplicity), used to localize basic blocks.
func oracleAbnormalPCs(dim analysis.Dimension, lo, hi float64, ok bool, trail []sampler.Sample) []int {
	marks := abnormalPositions(dim, lo, hi, ok, tickSeries(trail))
	// Map marked tick positions back to sample PCs: walk the trail,
	// tracking the per-tick index.
	var out []int
	pos := -1
	var lastTick int64 = -1
	for _, s := range trail {
		if s.Tick != lastTick {
			lastTick = s.Tick
			pos++
		}
		if marks[pos] {
			out = append(out, int(s.PC))
		}
	}
	return out
}

// tickSeries collapses a variable's samples to one observation per alarm
// tick, first sample winning, exactly as sketch.FromProfile folds them.
func tickSeries(samples []sampler.Sample) []float64 {
	var out []float64
	var lastTick int64 = -1
	for _, s := range samples {
		if s.Tick == lastTick {
			continue
		}
		lastTick = s.Tick
		out = append(out, float64(s.Value))
	}
	return out
}

// abnormalPositions marks the indices of buggy per-tick observations that
// fall outside what the normal execution exhibited (see normalRange).
func abnormalPositions(dim analysis.Dimension, lo, hi float64, ok bool, buggy []float64) []bool {
	marks := make([]bool, len(buggy))
	switch dim {
	case analysis.DimValue, analysis.DimNone:
		for i, v := range buggy {
			if !ok || v < lo || v > hi {
				marks[i] = true
			}
		}
	case analysis.DimDelta:
		last := 0 // index of the last distinct value
		for i := 1; i < len(buggy); i++ {
			if buggy[i] == buggy[last] {
				continue
			}
			d := buggy[i] - buggy[last]
			last = i
			if !ok || d < lo || d > hi {
				marks[i] = true
			}
		}
	case analysis.DimCost:
		run := 1
		for i := 1; i < len(buggy); i++ {
			if buggy[i] == buggy[i-1] {
				run++
			} else {
				run = 1
			}
			if !ok || float64(run) > hi {
				marks[i] = true
			}
		}
		if len(buggy) == 1 && !ok {
			marks[0] = true
		}
	}
	return marks
}

// samplesByVar groups a profile's samples by "func\x00name", preserving
// recording order. Matching sketch.FromProfile, duplicate layout entries for
// the same variable resolve to the first layout index.
func samplesByVar(pr *sampler.Profile) map[string][]sampler.Sample {
	first := make(map[string]int32, len(pr.Layout))
	for i, l := range pr.Layout {
		key := l.Func + "\x00" + l.Name
		if _, ok := first[key]; !ok {
			first[key] = int32(i)
		}
	}
	counts := make([]int, len(pr.Layout))
	for _, s := range pr.Samples {
		if s.Layout >= 0 && int(s.Layout) < len(counts) {
			counts[s.Layout]++
		}
	}
	byLayout := make([][]sampler.Sample, len(pr.Layout))
	for i, c := range counts {
		if c > 0 {
			byLayout[i] = make([]sampler.Sample, 0, c)
		}
	}
	for _, s := range pr.Samples {
		if s.Layout >= 0 && int(s.Layout) < len(byLayout) {
			byLayout[s.Layout] = append(byLayout[s.Layout], s)
		}
	}
	out := make(map[string][]sampler.Sample, len(first))
	for key, i := range first {
		out[key] = byLayout[i]
	}
	return out
}

// checkWalk compares the index walk with the copy path on every variable of
// trail, along each dimension, against the normal sketch's range, a
// narrowed range that marks more ticks, and no range at all.
func checkWalk(t *testing.T, trail *sampler.Profile, normal *sketch.Profile) {
	t.Helper()
	walk := analysis.AbnormalPCsOf(trail)
	byVar := samplesByVar(trail)
	keys := make([]string, 0, len(byVar))
	for key := range byVar {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	empty := &sketch.VarSummary{}
	for _, key := range keys {
		nv := normal.Var(key)
		if nv == nil {
			nv = empty
		}
		for _, dim := range []analysis.Dimension{analysis.DimValue, analysis.DimDelta, analysis.DimCost} {
			lo, hi, ok := analysis.NormalRange(dim, nv)
			for _, r := range []struct {
				lo, hi float64
				ok     bool
			}{{lo, hi, ok}, {lo, lo + (hi-lo)/2, ok}, {lo, hi, false}} {
				got := walk(key, dim, r.lo, r.hi, r.ok)
				want := oracleAbnormalPCs(dim, r.lo, r.hi, r.ok, byVar[key])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%q along %v, range [%v, %v] ok=%v: walk %v, copy path %v", key, dim, r.lo, r.hi, r.ok, got, want)
				}
			}
		}
	}
}

// TestAbnormalPCsMatchOracleIssues: buggy run 0 of every issue against its
// normal run 0 (b8's profiles merge three processes, whose clocks restart).
func TestAbnormalPCsMatchOracleIssues(t *testing.T) {
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			b, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			np, _ := b.ProfileNormal(0)
			bp, _ := b.ProfileBuggy(0)
			checkWalk(t, bp, sketch.FromProfile(np))
		})
	}
}

// TestAbnormalPCsMatchOracleEdgeCases: a variable observed at a single tick
// (several samples, the one-tick DimCost rule), a variable listed at two
// layout indices, samples naming no layout entry, repeated ticks, and a
// variable with no samples.
func TestAbnormalPCsMatchOracleEdgeCases(t *testing.T) {
	trail := &sampler.Profile{
		Layout: []sampler.LayoutEntry{
			{Func: "f", Name: "once"},
			{Func: "f", Name: "x"},
			{Func: "f", Name: "x"},
			{Func: "f", Name: "never"},
		},
		Samples: []sampler.Sample{
			{Layout: 0, Tick: 5, Value: 9, PC: 1},
			{Layout: 1, Tick: 5, Value: 3, PC: 2},
			{Layout: 0, Tick: 5, Value: 9, PC: 3},
			{Layout: 2, Tick: 6, Value: 4, PC: 4},
			{Layout: 1, Tick: 6, Value: 3, PC: 5},
			{Layout: -1, Tick: 6, Value: 0, PC: 6},
			{Layout: 7, Tick: 7, Value: 0, PC: 7},
			{Layout: 1, Tick: 7, Value: 8, PC: 8},
			{Layout: 1, Tick: 7, Value: 1, PC: 9},
			{Layout: 1, Tick: 9, Value: 8, PC: 10},
			{Layout: 1, Tick: 10, Value: 8, PC: 11},
			{Layout: 1, Tick: 2, Value: 8, PC: 12},
		},
	}
	normal := &sketch.Profile{Vars: []sketch.VarSummary{{
		Func: "f", Name: "x", Count: 4, NumRuns: 2, MaxRun: 1, Min: 2, Max: 6,
		Deltas: sketch.HistOf([]float64{1, 2}),
	}}}
	checkWalk(t, trail, normal)
	if got := analysis.AbnormalPCsOf(trail)("f\x00once", analysis.DimCost, 0, 0, false); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("one-tick series along DimCost without a normal range: %v, want [1 3]", got)
	}
}
