// Package sketch provides mergeable per-variable summaries of value-assisted
// profiles: exact value, change-delta and run-length histograms and
// count/sum/min/max moments, folded from a decoded profile once at ingest
// time. Sketches are the store's derived "summary section": diagnosing a new
// run against a stored baseline corpus reads only sketches (O(new runs)),
// never re-decoding old profile blobs, and sketch merge is associative,
// commutative and deterministic (variable lists ordered by key), so a
// sharded store can combine partial sketches into one answer.
//
// Every histogram and per-PC count is an ascending array of (key, count)
// pairs with no zero counts, so folding, merging and encoding are linear
// passes and one sketch has one in-memory form.
//
// Exactness: histograms count exact observations, and the Anderson-Darling
// and Hellinger kernels in internal/stats are functions of per-distinct-value
// counts, so reading the counts directly gives the verdicts the raw series
// would. Pointer variables carry no value or delta histogram: addresses mean
// nothing across runs, so only the processing-cost dimension (run lengths)
// applies to them (paper §5.1).
package sketch

import (
	"cmp"
	"slices"

	"vprof/internal/sampler"
)

// Pair is one entry of a sparse count: a key (an observed value, or a PC)
// and how often it occurred.
type Pair[K cmp.Ordered] struct {
	Key   K
	Count int64
}

// Hist is an exact histogram: (observed value, observation count) pairs in
// strictly ascending value order, every count positive. The zero value
// (nil) is an empty histogram.
type Hist []Pair[float64]

// PCCounts is a sparse per-PC count: (pc, count) pairs in strictly
// ascending PC order, every count positive. nil is empty.
type PCCounts []Pair[int32]

// Total returns the number of observations.
func (h Hist) Total() int64 {
	var n int64
	for _, e := range h {
		n += e.Count
	}
	return n
}

// MergeHist returns the value-wise sum of two histograms. Either argument
// may be nil; the inputs are not mutated.
func MergeHist(a, b Hist) Hist { return mergePairs(a, b) }

// mergePairs merge-joins two ascending pair arrays into a fresh one,
// summing the counts of equal keys (nil when both are empty).
func mergePairs[K cmp.Ordered](a, b []Pair[K]) []Pair[K] {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]Pair[K], 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key < b[j].Key:
			out = append(out, a[i])
			i++
		case a[i].Key > b[j].Key:
			out = append(out, b[j])
			j++
		default:
			out = append(out, Pair[K]{a[i].Key, a[i].Count + b[j].Count})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// HistOf counts a raw series into a histogram (nil for an empty series).
func HistOf(series []float64) Hist {
	var runs Hist
	for i := 0; i < len(series); {
		j := i + 1
		for j < len(series) && series[j] == series[i] {
			j++
		}
		runs = append(runs, Pair[float64]{series[i], int64(j - i)})
		i = j
	}
	return histOfPairs(runs)
}

// histOfPairs sorts unordered (value, count) pairs in place and sums equal
// values into an exact-size histogram (nil for no pairs).
func histOfPairs(pairs []Pair[float64]) Hist {
	if len(pairs) == 0 {
		return nil
	}
	slices.SortFunc(pairs, func(a, b Pair[float64]) int { return cmp.Compare(a.Key, b.Key) })
	n := 1
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key != pairs[i-1].Key {
			n++
		}
	}
	out := make(Hist, 0, n)
	for _, e := range pairs {
		if k := len(out) - 1; k >= 0 && out[k].Key == e.Key {
			out[k].Count += e.Count
		} else {
			out = append(out, e)
		}
	}
	return out
}

// VarSummary is the mergeable summary of one monitored variable in one (or
// a merged set of) profiled executions: the three discounter dimensions as
// histograms plus the plain moments.
type VarSummary struct {
	Func      string
	Name      string
	IsPointer bool

	// Count is the number of tick-collapsed observations (== Values
	// total, except for pointers); NumRuns the number of equal-value runs
	// (== Runs total).
	Count   int64
	NumRuns int64
	// MaxRun is the longest equal-value run; Min/Max/Sum are moments of
	// the observations, valid when Count > 0.
	MaxRun float64
	Min    float64
	Max    float64
	Sum    float64

	// Values, Deltas and Runs are the per-dimension histograms: the
	// tick-collapsed value series, its change deltas
	// (stats.ChangeDeltas), and its equal-value run lengths
	// (stats.RunLengths), all computed from the ordered series at fold
	// time. Pointer variables keep only Runs.
	Values Hist
	Deltas Hist
	Runs   Hist

	// PCs are the distinct PCs at which the variable was sampled,
	// ascending (globals attribute to the functions containing them).
	PCs []int32
}

// Key returns the variable's identity ("func\x00name"), the sort key of
// Profile.Vars.
func (v *VarSummary) Key() string { return v.Func + "\x00" + v.Name }

// Merge folds other into v (same variable; callers must not merge summaries
// with different keys). Counts add, extrema combine, histograms sum, PC
// sets union.
func (v *VarSummary) Merge(other *VarSummary) {
	if other.Count > 0 {
		if v.Count == 0 || other.Min < v.Min {
			v.Min = other.Min
		}
		if v.Count == 0 || other.Max > v.Max {
			v.Max = other.Max
		}
	}
	v.Count += other.Count
	v.NumRuns += other.NumRuns
	v.Sum += other.Sum
	if other.MaxRun > v.MaxRun {
		v.MaxRun = other.MaxRun
	}
	v.IsPointer = v.IsPointer || other.IsPointer
	v.Values = MergeHist(v.Values, other.Values)
	v.Deltas = MergeHist(v.Deltas, other.Deltas)
	v.Runs = MergeHist(v.Runs, other.Runs)
	v.PCs = unionPCs(v.PCs, other.PCs)
}

func unionPCs(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return slices.Clone(b)
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Profile is the mergeable sketch of one profiled execution (or, after
// Merge, of several tick-disjoint executions summed — the corpus view a
// shard returns). It carries everything the analysis kernels need: the
// sparse PC histogram, per-PC value-sample units, and per-variable
// summaries ordered by variable key.
type Profile struct {
	// BlobID is the content address of the profile blob the sketch was
	// folded from ("" for merged sketches).
	BlobID string

	Interval   int64
	TotalTicks int64
	NumAlarms  int64
	// HistLen is the PC-histogram length of the source profile (PCs in
	// Hist and UnitsByPC are < HistLen).
	HistLen int64

	// Hist is the sparse PC-sample histogram (zero counts omitted).
	Hist PCCounts
	// UnitsByPC counts distinct (tick, pc) value-sample units per PC:
	// summing over a function's PCs reproduces
	// sampler.Profile.FuncValueSampleUnits exactly.
	UnitsByPC PCCounts

	// Vars is sorted ascending by VarSummary.Key.
	Vars []VarSummary
}

// FromHist folds only a profile's PC histogram and run totals: the part of
// its sketch the hist-discounter reads.
func FromHist(p *sampler.Profile) *Profile {
	s := &Profile{
		Interval:   p.Interval,
		TotalTicks: p.TotalTicks,
		NumAlarms:  p.NumAlarms,
		HistLen:    int64(len(p.Hist)),
	}
	n := 0
	for _, c := range p.Hist {
		if c != 0 {
			n++
		}
	}
	if n > 0 {
		s.Hist = make(PCCounts, 0, n)
		for pc, c := range p.Hist {
			if c != 0 {
				s.Hist = append(s.Hist, Pair[int32]{int32(pc), c})
			}
		}
	}
	return s
}

// FromProfile folds a decoded profile into its sketch. The fold is
// deterministic: variables are keyed by their first layout entry and
// summarized from their tick-collapsed series. Samples whose PC lies
// outside the PC histogram are ignored (profilefmt.Validate rejects them).
//
// No step is a map operation per sample. Two passes over the samples, in
// recording (time) order, cut each variable's series into equal-value runs
// (the first pass counts them, the second writes them) and bucket the
// samples by PC with a stable counting sort. Walking the buckets in PC
// order then yields each variable's ascending PC set and each PC's
// distinct ticks, and each variable's histograms sort only its runs.
func FromProfile(p *sampler.Profile) *Profile {
	s := FromHist(p)
	histLen := len(p.Hist)
	folds, varOf := newFolds(p.Layout)
	varAt := func(l int32) int32 {
		if l < 0 || int(l) >= len(varOf) {
			return -1
		}
		return varOf[l]
	}

	// Pass 1: bucket sizes, nonempty buckets and runs per variable.
	end := make([]int32, histLen+1) // counts, then bucket starts, then bucket ends
	used := 0
	for i := range p.Samples {
		smp := &p.Samples[i]
		if !pcInRange(smp.PC, histLen) {
			continue
		}
		if end[smp.PC+1] == 0 {
			used++
		}
		end[smp.PC+1]++
		if v := varAt(smp.Layout); v >= 0 {
			if _, run := folds[v].observe(smp.Tick, float64(smp.Value)); run {
				folds[v].nruns++
			}
		}
	}
	for pc := 1; pc <= histLen; pc++ {
		end[pc] += end[pc-1]
	}
	runs := make([]Pair[float64], sumOf(folds, func(f *varFold) int { return f.nruns }))
	for i := range folds {
		f := &folds[i]
		f.runs, runs = runs[:0:f.nruns], runs[f.nruns:]
		f.lastTick, f.started = -1, false
	}

	// Pass 2: fill the PC buckets (tick and variable of each sample) and
	// the runs and moments of each variable.
	ticks := make([]int64, end[histLen])
	vars := make([]int32, end[histLen])
	for i := range p.Samples {
		smp := &p.Samples[i]
		if !pcInRange(smp.PC, histLen) {
			continue
		}
		at := end[smp.PC]
		end[smp.PC]++
		ticks[at] = smp.Tick
		vars[at] = varAt(smp.Layout)
		if vars[at] >= 0 {
			folds[vars[at]].add(smp.Tick, float64(smp.Value))
		}
	}

	// The buckets in PC order: count each variable's PCs, then list them
	// and each PC's distinct ticks. A bucket's ticks are ascending unless
	// the profile merges several processes (each restarts its clock); it
	// is then sorted, so equal ticks of different processes are one unit.
	forBuckets := func(visit func(pc int32, lo, hi int32)) {
		lo := int32(0)
		for pc := int32(0); int(pc) < histLen; pc++ {
			if hi := end[pc]; hi > lo {
				visit(pc, lo, hi)
				lo = hi
			}
		}
	}
	forBuckets(func(pc int32, lo, hi int32) {
		for _, v := range vars[lo:hi] {
			if v >= 0 && folds[v].lastPC != pc {
				folds[v].lastPC = pc
				folds[v].npcs++
			}
		}
	})
	pcs := make([]int32, sumOf(folds, func(f *varFold) int { return f.npcs }))
	for i := range folds {
		f := &folds[i]
		if f.npcs > 0 {
			f.PCs, pcs = pcs[:0:f.npcs], pcs[f.npcs:]
		}
		f.lastPC = -1
	}
	if used > 0 {
		s.UnitsByPC = make(PCCounts, 0, used)
	}
	forBuckets(func(pc int32, lo, hi int32) {
		for _, v := range vars[lo:hi] {
			if v >= 0 && folds[v].lastPC != pc {
				folds[v].lastPC = pc
				folds[v].PCs = append(folds[v].PCs, pc)
			}
		}
		bucket := ticks[lo:hi]
		if !slices.IsSorted(bucket) {
			slices.Sort(bucket)
		}
		n := int64(1)
		for i := 1; i < len(bucket); i++ {
			if bucket[i] != bucket[i-1] {
				n++
			}
		}
		s.UnitsByPC = append(s.UnitsByPC, Pair[int32]{pc, n})
	})

	s.Vars = make([]VarSummary, len(folds))
	var scratch []Pair[float64]
	for i := range folds {
		scratch = folds[i].finish(scratch)
		s.Vars[i] = folds[i].VarSummary
	}
	return s
}

func pcInRange(pc int32, histLen int) bool { return pc >= 0 && int(pc) < histLen }

func sumOf(folds []varFold, n func(*varFold) int) int {
	total := 0
	for i := range folds {
		total += n(&folds[i])
	}
	return total
}

// varFold is one variable's summary while FromProfile builds it.
type varFold struct {
	VarSummary
	lastTick int64           // tick of the last observation
	last     float64         // value of the last observation
	started  bool            // an observation has been made
	nruns    int             // runs counted by the first pass
	runs     []Pair[float64] // (value, length) per run, in time order
	npcs     int             // PCs counted by the first bucket walk
	lastPC   int32           // last PC the bucket walk credited to it
}

// newFolds makes one fold per variable, in key order, and maps each layout
// index to its variable's fold. A variable listed at several layout
// indices keeps the samples of the first, matching
// sampler.Profile.VarSamples: the others map to -1.
func newFolds(layout []sampler.LayoutEntry) (folds []varFold, varOf []int32) {
	keys := make([]string, len(layout))
	order := make([]int, len(layout))
	for i, l := range layout {
		keys[i] = l.Func + "\x00" + l.Name
		order[i] = i
	}
	// Stable, so each key's first index comes first.
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	varOf = make([]int32, len(layout))
	folds = make([]varFold, 0, len(layout))
	for k, i := range order {
		if k > 0 && keys[i] == keys[order[k-1]] {
			varOf[i] = -1
			continue
		}
		varOf[i] = int32(len(folds))
		l := layout[i]
		folds = append(folds, varFold{
			VarSummary: VarSummary{Func: l.Func, Name: l.Name, IsPointer: l.IsPointer},
			lastTick:   -1,
			lastPC:     -1,
		})
	}
	return folds, varOf
}

// observe feeds one sample of the variable. It reports whether the sample
// is an observation, the first of its alarm tick (virtual unwinding can
// record a variable several times in one alarm at different stack depths;
// it has a single value at that moment), and whether that observation
// starts a new equal-value run.
func (f *varFold) observe(tick int64, v float64) (obs, run bool) {
	if tick == f.lastTick {
		return false, false
	}
	run = !f.started || v != f.last
	f.lastTick, f.last, f.started = tick, v, true
	return true, run
}

// add feeds one sample to the second pass: observations update the moments
// and extend the runs.
func (f *varFold) add(tick int64, v float64) {
	obs, run := f.observe(tick, v)
	switch {
	case run:
		f.runs = append(f.runs, Pair[float64]{v, 1})
	case obs:
		f.runs[len(f.runs)-1].Count++
	default:
		return
	}
	if f.Count == 0 {
		f.Min, f.Max = v, v
	} else {
		f.Min, f.Max = min(f.Min, v), max(f.Max, v)
	}
	f.Count++
	f.Sum += v
}

// finish counts the histograms from the runs, reusing scratch (returned
// for the next variable); the runs are sorted in place.
func (f *varFold) finish(scratch []Pair[float64]) []Pair[float64] {
	f.NumRuns = int64(len(f.runs))
	scratch = scratch[:0]
	for _, r := range f.runs {
		f.MaxRun = max(f.MaxRun, float64(r.Count))
		scratch = append(scratch, Pair[float64]{float64(r.Count), 1})
	}
	f.Runs = histOfPairs(scratch)
	if !f.IsPointer {
		scratch = scratch[:0]
		for k := 1; k < len(f.runs); k++ {
			scratch = append(scratch, Pair[float64]{f.runs[k].Key - f.runs[k-1].Key, 1})
		}
		f.Deltas = histOfPairs(scratch)
		f.Values = histOfPairs(f.runs)
	}
	return scratch
}

// Var returns the summary for a variable key ("func\x00name"), or nil.
func (s *Profile) Var(key string) *VarSummary {
	i, ok := slices.BinarySearchFunc(s.Vars, key, func(v VarSummary, key string) int { return cmp.Compare(v.Key(), key) })
	if ok {
		return &s.Vars[i]
	}
	return nil
}

// Clone returns a deep copy of the sketch.
func (s *Profile) Clone() *Profile {
	out := *s
	out.Hist = slices.Clone(s.Hist)
	out.UnitsByPC = slices.Clone(s.UnitsByPC)
	out.Vars = make([]VarSummary, len(s.Vars))
	for i := range s.Vars {
		out.Vars[i] = cloneVar(&s.Vars[i])
	}
	return &out
}

// Merge folds other into s: counts sum and variable lists merge-join in key
// order, so the operation is associative, commutative (up to the symmetric
// BlobID/Interval carry-over below) and deterministic. Merging models
// summing tick-disjoint executions (shards of one corpus); both sketches
// should share Interval — the receiver's is kept, or adopted when the
// receiver is empty.
func (s *Profile) Merge(other *Profile) {
	if s.Interval == 0 {
		s.Interval = other.Interval
	}
	s.BlobID = "" // merged sketches no longer address a single blob
	s.TotalTicks += other.TotalTicks
	s.NumAlarms += other.NumAlarms
	s.HistLen = max(s.HistLen, other.HistLen)
	s.Hist = mergePairs(s.Hist, other.Hist)
	s.UnitsByPC = mergePairs(s.UnitsByPC, other.UnitsByPC)

	merged := make([]VarSummary, 0, len(s.Vars)+len(other.Vars))
	i, j := 0, 0
	for i < len(s.Vars) && j < len(other.Vars) {
		a, b := &s.Vars[i], &other.Vars[j]
		ak, bk := a.Key(), b.Key()
		switch {
		case ak < bk:
			merged = append(merged, *a)
			i++
		case ak > bk:
			merged = append(merged, cloneVar(b))
			j++
		default:
			// VarSummary.Merge builds fresh histograms and PC slices, so
			// the copied struct never aliases other's arrays.
			v := *a
			v.Merge(b)
			merged = append(merged, v)
			i++
			j++
		}
	}
	merged = append(merged, s.Vars[i:]...)
	for ; j < len(other.Vars); j++ {
		merged = append(merged, cloneVar(&other.Vars[j]))
	}
	s.Vars = merged
}

func cloneVar(v *VarSummary) VarSummary {
	out := *v
	out.Values = slices.Clone(v.Values)
	out.Deltas = slices.Clone(v.Deltas)
	out.Runs = slices.Clone(v.Runs)
	out.PCs = slices.Clone(v.PCs)
	return out
}
