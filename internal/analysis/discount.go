package analysis

import (
	"context"
	"sort"

	"vprof/internal/debuginfo"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

// dimSeries is one candidate dimension's pair of observation series.
type dimSeries struct {
	d    Dimension
	n, b []float64
}

// trimDims applies the paper's dimension restrictions: pointer values
// (addresses) carry no meaning across runs, so only the processing-cost
// dimension applies (§5.1); DimensionsValueOnly is the ablation switch.
func trimDims(p Params, isPointer bool, dims []dimSeries) []dimSeries {
	if isPointer {
		return dims[2:]
	}
	if p.DimensionsValueOnly {
		return dims[:1]
	}
	return dims
}

// selectDiscount runs discountOneDim over the candidate dimensions and
// returns the verdict with the minimum raw ratio (raw, not floored —
// dimension selection compares raw ratios, per the paper's Redis-8668
// walkthrough) plus the dimension that produced it.
func selectDiscount(p Params, dims []dimSeries) (float64, Dimension, bool) {
	best, bestRaw := 1.0, 2.0
	bestDim := DimNone
	tested := false
	for _, dm := range dims {
		r, raw, ok := discountOneDim(p, dm.n, dm.b)
		if !ok {
			continue
		}
		tested = true
		if raw < bestRaw || bestDim == DimNone {
			best, bestRaw = r, raw
			bestDim = dm.d
		}
	}
	if !tested {
		return 1, DimNone, false
	}
	return best, bestDim, true
}

// discountOneDim computes the discount ratio for a single dimension,
// returning both the floored ratio and the raw ratio before the
// ValidDiscount floor (dimension selection compares raw ratios, per the
// paper's Redis-8668 walkthrough: value 0.12 vs cost 0, cost wins). ok is
// false when there is not enough information in either execution.
func discountOneDim(p Params, normal, buggy []float64) (ratio, raw float64, ok bool) {
	nN, nB := len(normal), len(buggy)
	switch {
	case nN == 0 && nB == 0:
		return 1, 1, false
	case nN < p.MinSamples && nB < p.MinSamples:
		// Too little data on both sides: no information.
		return 1, 1, false
	case nN < p.MinSamples || nB < p.MinSamples:
		// One side has data, the other (almost) none. If the
		// populated side is substantial this is itself anomalous —
		// the paper's MDEV-16289 case (0 normal vs 30+ buggy samples
		// of clust_index gave a zero discount).
		if nN >= p.OneSidedSamples || nB >= p.OneSidedSamples {
			return 0, 0, true
		}
		return p.DefaultDiscount, p.DefaultDiscount, true
	}

	res, err := stats.ADKSample(normal, buggy)
	if err != nil {
		// Degenerate: e.g. the variable holds the same constant in
		// both runs. Indistinguishable distributions.
		return p.DefaultDiscount, p.DefaultDiscount, true
	}
	if res.P >= p.PValue {
		// Cannot reject "same distribution" with confidence: apply the
		// default discount.
		return p.DefaultDiscount, p.DefaultDiscount, true
	}
	raw = 1 - stats.Hellinger(normal, buggy)
	ratio = raw
	if ratio < p.ValidDiscount {
		ratio = 0
	}
	return ratio, raw, true
}

// analyzeVariables runs the variable-discounter over every monitored
// variable in either side's run-0 sketch, returning reports keyed by
// "func\x00name": per variable, the three dimension histograms expand to
// sorted observation series and feed the one-dimension test. Variables are
// independent, so the statistics fan out over the worker pool; each index
// writes only its own report, and the merge walks the sorted key list, so
// the result is identical for any worker count. Cancellation drains the
// pool and surfaces ctx.Err().
func analyzeVariables(ctx context.Context, p Params, in SketchInput) (map[string]*VariableReport, error) {
	normal, buggy := in.Normal, in.Buggy[0]
	type varPair struct{ n, b *sketch.VarSummary }
	pairs := map[string]varPair{}
	for i := range normal.Vars {
		v := &normal.Vars[i]
		pairs[v.Key()] = varPair{n: v}
	}
	for i := range buggy.Vars {
		v := &buggy.Vars[i]
		pr := pairs[v.Key()]
		pr.b = v
		pairs[v.Key()] = pr
	}
	names := make([]string, 0, len(pairs))
	for key := range pairs {
		names = append(names, key)
	}
	sort.Strings(names)

	var trail map[string][]sampler.Sample
	if in.Trail != nil {
		trail = samplesByVar(in.Trail)
	}

	empty := &sketch.VarSummary{}
	reports, err := parallel.MapCtx(ctx, parallel.Workers(p.Workers), len(names), func(i int) *VariableReport {
		key := names[i]
		pr := pairs[key]
		// The buggy side's layout entry wins when both sides carry the
		// variable.
		l := pr.b
		if l == nil {
			l = pr.n
		}
		nv, bv := pr.n, pr.b
		if nv == nil {
			nv = empty
		}
		if bv == nil {
			bv = empty
		}
		vr := &VariableReport{
			Func:        l.Func,
			Name:        l.Name,
			IsPointer:   l.IsPointer,
			NormalCount: int(nv.Count),
			BuggyCount:  int(bv.Count),
		}
		if e := in.Schema.Lookup(l.Func, l.Name); e != nil {
			vr.Tags = e.Tags
		}
		vr.Discount, vr.Dimension, vr.Tested = selectDiscount(p, trimDims(p, l.IsPointer, []dimSeries{
			{DimValue, nv.Values.Expand(), bv.Values.Expand()},
			{DimDelta, nv.Deltas.Expand(), bv.Deltas.Expand()},
			{DimCost, nv.Runs.Expand(), bv.Runs.Expand()},
		}))
		vr.MaxRunNormal = nv.MaxRun
		vr.MaxRunBuggy = bv.MaxRun
		vr.RunsBuggy = int(bv.NumRuns)
		if trail != nil && vr.Tested && vr.Discount < p.DefaultDiscount {
			lo, hi, ok := normalRange(vr.Dimension, nv)
			vr.AbnormalPCs = abnormalPCs(vr.Dimension, lo, hi, ok, trail[key])
		}
		return vr
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*VariableReport, len(names))
	for i, key := range names {
		out[key] = reports[i]
	}
	return out, nil
}

// normalRange reads from the normal sketch the range abnormalPositions
// checks along dim: the value extremes, the extreme change deltas, or (for
// DimCost, where only hi matters) the longest equal-value run. ok is false
// when the normal execution has no observation along dim.
func normalRange(dim Dimension, nv *sketch.VarSummary) (lo, hi float64, ok bool) {
	switch dim {
	case DimDelta:
		if len(nv.Deltas) == 0 {
			return 0, 0, false
		}
		return nv.Deltas[0].Key, nv.Deltas[len(nv.Deltas)-1].Key, true
	case DimCost:
		return 0, nv.MaxRun, nv.NumRuns > 0
	}
	return nv.Min, nv.Max, nv.Count > 0
}

// abnormalPCs identifies the trail's samples that are anomalous along the
// given dimension against the normal range [lo, hi] and returns their PCs
// (with multiplicity), used to localize basic blocks.
func abnormalPCs(dim Dimension, lo, hi float64, ok bool, trail []sampler.Sample) []int {
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
func abnormalPositions(dim Dimension, lo, hi float64, ok bool, buggy []float64) []bool {
	marks := make([]bool, len(buggy))
	switch dim {
	case DimValue, DimNone:
		for i, v := range buggy {
			if !ok || v < lo || v > hi {
				marks[i] = true
			}
		}
	case DimDelta:
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
	case DimCost:
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

// attributeVariables maps variable reports to functions: locals to their
// declaring function; globals to every function containing a PC at which
// the global was sampled in the buggy run (the sketch's per-variable PC
// set; paper §5.1).
func attributeVariables(vars map[string]*VariableReport, buggy *sketch.Profile, info *debuginfo.Info) map[string][]*VariableReport {
	out := map[string][]*VariableReport{}
	for key, vr := range vars {
		if vr.Func != debuginfo.GlobalScope {
			out[vr.Func] = append(out[vr.Func], vr)
			continue
		}
		bv := buggy.Var(key)
		if bv == nil {
			continue
		}
		fns := map[string]bool{}
		for _, pc := range bv.PCs {
			if fn := info.FuncAt(int(pc)); fn != nil {
				fns[fn.Name] = true
			}
		}
		for fn := range fns {
			out[fn] = append(out[fn], vr)
		}
	}
	for _, list := range out {
		sortAttributed(list)
	}
	return out
}

// sortAttributed is the deterministic per-function ordering of attributed
// variables: most anomalous first; on ties, tagged variables (more
// diagnostic signal) and locals before globals, then by name.
func sortAttributed(list []*VariableReport) {
	sort.Slice(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if a.Discount != b.Discount {
			return a.Discount < b.Discount
		}
		aTag, bTag := a.Tags != schema.TagNone, b.Tags != schema.TagNone
		if aTag != bTag {
			return aTag
		}
		aLocal, bLocal := a.Func != debuginfo.GlobalScope, b.Func != debuginfo.GlobalScope
		if aLocal != bLocal {
			return aLocal
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Name < b.Name
	})
}
