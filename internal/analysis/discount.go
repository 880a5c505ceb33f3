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

// dimSeries is one candidate dimension's pair of observation histograms.
type dimSeries struct {
	d    Dimension
	n, b sketch.Hist
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
func discountOneDim(p Params, normal, buggy sketch.Hist) (ratio, raw float64, ok bool) {
	nN, nB := int(normal.Total()), int(buggy.Total())
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

	res, err := stats.ADKSampleHist(normal, buggy)
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
// "func\x00name": per variable, the three dimension histograms feed the
// one-dimension test as they are. Variables are
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

	var trail *trailIndex
	if in.Trail != nil {
		trail = indexTrail(in.Trail)
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
			{DimValue, nv.Values, bv.Values},
			{DimDelta, nv.Deltas, bv.Deltas},
			{DimCost, nv.Runs, bv.Runs},
		}))
		vr.MaxRunNormal = nv.MaxRun
		vr.MaxRunBuggy = bv.MaxRun
		vr.RunsBuggy = int(bv.NumRuns)
		if trail != nil && vr.Tested && vr.Discount < p.DefaultDiscount {
			lo, hi, ok := normalRange(vr.Dimension, nv)
			vr.AbnormalPCs = abnormalPCs(vr.Dimension, lo, hi, ok, trail.samples, trail.of(key))
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

// normalRange reads from the normal sketch the range abnormalPCs checks
// along dim: the value extremes, the extreme change deltas, or (for
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

// abnormalPCs walks one variable's trail samples (idx, indices into
// samples in recording order) and returns, with multiplicity, the PCs of
// the samples whose alarm tick's observation falls outside the normal range
// [lo, hi] along dim; ok false means the normal execution offers no range,
// so every observation that dim can judge is abnormal. The walk collapses
// the samples to one observation per tick, first sample winning, exactly as
// sketch.FromProfile folds them, and every sample of a marked tick counts:
//   - DimValue (and DimNone): the observed value lies outside [lo, hi];
//   - DimDelta: the value differs from the previous tick's, by a change
//     outside [lo, hi];
//   - DimCost: the value has stayed the same for more than hi ticks. The
//     first tick starts a run and is not marked, unless it is the only
//     tick and ok is false.
func abnormalPCs(dim Dimension, lo, hi float64, ok bool, samples []sampler.Sample, idx []int32) []int {
	var out []int
	var lastTick int64 = -1
	ticks := 0       // ticks seen so far
	var prev float64 // the previous tick's observation
	run := 0
	mark := false
	for _, k := range idx {
		s := &samples[k]
		if s.Tick != lastTick {
			lastTick = s.Tick
			v := float64(s.Value)
			switch dim {
			case DimValue, DimNone:
				mark = !ok || v < lo || v > hi
			case DimDelta:
				d := v - prev
				mark = ticks > 0 && v != prev && (!ok || d < lo || d > hi)
			case DimCost:
				if ticks > 0 && v == prev {
					run++
				} else {
					run = 1
				}
				mark = ticks > 0 && (!ok || float64(run) > hi)
			}
			prev = v
			ticks++
		}
		if mark {
			out = append(out, int(s.PC))
		}
	}
	if dim == DimCost && !ok && ticks == 1 {
		for _, k := range idx {
			out = append(out, int(samples[k].PC))
		}
	}
	return out
}

// trailIndex groups the trail's sample indices by variable: one stable
// counting sort by layout index, so each variable's indices stay in
// recording order. Matching sketch.FromProfile, a variable listed at
// several layout indices keeps the samples of the first.
type trailIndex struct {
	samples []sampler.Sample
	order   []int32          // sample indices, grouped by layout index
	end     []int32          // layout l's group ends at order[end[l]]
	first   map[string]int32 // variable key -> its first layout index
}

func indexTrail(pr *sampler.Profile) *trailIndex {
	n := len(pr.Layout)
	t := &trailIndex{samples: pr.Samples, end: make([]int32, n+1), first: make(map[string]int32, n)}
	for i, l := range pr.Layout {
		key := l.Func + "\x00" + l.Name
		if _, ok := t.first[key]; !ok {
			t.first[key] = int32(i)
		}
	}
	inLayout := func(s *sampler.Sample) bool { return s.Layout >= 0 && int(s.Layout) < n }
	for i := range pr.Samples {
		if s := &pr.Samples[i]; inLayout(s) {
			t.end[s.Layout+1]++
		}
	}
	for l := 1; l <= n; l++ {
		t.end[l] += t.end[l-1]
	}
	// end[l] is now where layout l's group starts; filling the group
	// moves it to where the group ends.
	t.order = make([]int32, t.end[n])
	for i := range pr.Samples {
		if s := &pr.Samples[i]; inLayout(s) {
			t.order[t.end[s.Layout]] = int32(i)
			t.end[s.Layout]++
		}
	}
	return t
}

// of returns the indices of the samples of the variable key, in recording
// order.
func (t *trailIndex) of(key string) []int32 {
	l, ok := t.first[key]
	if !ok {
		return nil
	}
	lo := int32(0)
	if l > 0 {
		lo = t.end[l-1]
	}
	return t.order[lo:t.end[l]]
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
