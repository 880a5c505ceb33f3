// Package sketch provides mergeable per-variable summaries of value-assisted
// profiles: exact value, change-delta and run-length histograms and
// count/sum/min/max moments, folded from a decoded profile once at ingest
// time. Sketches are the store's derived "summary section": diagnosing a new
// run against a stored baseline corpus reads only sketches (O(new runs)),
// never re-decoding old profile blobs, and sketch merge is associative,
// commutative and deterministic (index-ordered variable lists), so a sharded
// store can combine partial sketches into one answer.
//
// Exactness: histograms count exact observations, so Expand reproduces the
// sorted observation multiset and the analysis kernels in internal/analysis
// compute the same verdicts as over the raw series. Pointer variables carry
// no value or delta histogram: addresses mean nothing across runs, so only
// the processing-cost dimension (run lengths) applies to them (paper §5.1).
package sketch

import (
	"sort"

	"vprof/internal/sampler"
	"vprof/internal/stats"
)

// Hist is an exact histogram: observed value -> observation count. The zero
// value (nil) is an empty histogram.
type Hist map[float64]int64

// Total returns the number of observations.
func (h Hist) Total() int64 {
	var n int64
	for _, c := range h {
		n += c
	}
	return n
}

// Keys returns the observed values in ascending order.
func (h Hist) Keys() []float64 {
	out := make([]float64, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Float64s(out)
	return out
}

// Expand reconstructs the observation multiset as an ascending series (each
// value repeated by its count). The analysis kernels feed these to the
// order-invariant Anderson-Darling and Hellinger tests.
func (h Hist) Expand() []float64 {
	out := make([]float64, 0, h.Total())
	for _, k := range h.Keys() {
		for c := h[k]; c > 0; c-- {
			out = append(out, k)
		}
	}
	return out
}

// Clone returns a deep copy (nil stays nil).
func (h Hist) Clone() Hist {
	if h == nil {
		return nil
	}
	out := make(Hist, len(h))
	for k, c := range h {
		out[k] = c
	}
	return out
}

// MergeHist returns the value-wise sum of two histograms. Either argument
// may be nil; the inputs are not mutated.
func MergeHist(a, b Hist) Hist {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(Hist, len(a)+len(b))
	for k, c := range a {
		out[k] += c
	}
	for k, c := range b {
		out[k] += c
	}
	return out
}

// HistOf counts a raw series into a histogram (nil for an empty series).
// A run of equal adjacent values costs one map update.
func HistOf(series []float64) Hist {
	if len(series) == 0 {
		return nil
	}
	h := make(Hist)
	for i := 0; i < len(series); {
		j := i + 1
		for j < len(series) && series[j] == series[i] {
			j++
		}
		h[series[i]] += int64(j - i)
		i = j
	}
	return h
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
		return append([]int32(nil), b...)
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
// summaries, index-ordered by variable key.
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
	Hist map[int32]int64
	// UnitsByPC counts distinct (tick, pc) value-sample units per PC:
	// summing over a function's PCs reproduces
	// sampler.Profile.FuncValueSampleUnits exactly.
	UnitsByPC map[int32]int64

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
		Hist:       make(map[int32]int64),
	}
	for pc, n := range p.Hist {
		if n != 0 {
			s.Hist[int32(pc)] = n
		}
	}
	return s
}

// FromProfile folds a decoded profile into its sketch. The fold is
// deterministic: variables are keyed by their first layout entry and
// summarized from their tick-collapsed series.
func FromProfile(p *sampler.Profile) *Profile {
	s := FromHist(p)
	s.UnitsByPC = make(map[int32]int64)
	type unit struct {
		tick int64
		pc   int32
	}
	seen := map[unit]bool{}
	for _, smp := range p.Samples {
		u := unit{smp.Tick, smp.PC}
		if !seen[u] {
			seen[u] = true
			s.UnitsByPC[smp.PC]++
		}
	}

	// One pass over the samples, in recording (time) order, folds every
	// variable's tick-collapsed series — one observation per alarm tick,
	// first sample winning (virtual unwinding can record a variable
	// several times in one alarm at different stack depths; it has a
	// single value at that moment) — and its PC set. A variable listed at
	// several layout indices keeps the samples of the first, matching
	// sampler.Profile.VarSamples.
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
	s.Vars = make([]VarSummary, 0, len(p.Layout))
	for i, l := range p.Layout {
		key := l.Func + "\x00" + l.Name
		if folded[key] {
			continue
		}
		folded[key] = true
		s.Vars = append(s.Vars, summarizeVar(l, folds[i].series, folds[i].pcs))
	}
	sort.Slice(s.Vars, func(i, j int) bool { return s.Vars[i].Key() < s.Vars[j].Key() })
	return s
}

// summarizeVar folds one variable's tick-collapsed series and PC set into
// its summary.
func summarizeVar(l sampler.LayoutEntry, series []float64, pcs map[int32]bool) VarSummary {
	vs := VarSummary{Func: l.Func, Name: l.Name, IsPointer: l.IsPointer}
	vs.Count = int64(len(series))
	if len(series) > 0 {
		vs.Min, vs.Max, _ = stats.MinMax(series)
		for _, v := range series {
			vs.Sum += v
		}
	}
	if !l.IsPointer {
		vs.Values = HistOf(series)
		vs.Deltas = HistOf(stats.ChangeDeltas(series))
	}
	runs := stats.RunLengths(series)
	vs.Runs = HistOf(runs)
	vs.NumRuns = int64(len(runs))
	_, vs.MaxRun, _ = stats.MinMax(runs)
	if len(pcs) > 0 {
		vs.PCs = make([]int32, 0, len(pcs))
		for pc := range pcs {
			vs.PCs = append(vs.PCs, pc)
		}
		sort.Slice(vs.PCs, func(i, j int) bool { return vs.PCs[i] < vs.PCs[j] })
	}
	return vs
}

// Var returns the summary for a variable key ("func\x00name"), or nil.
func (s *Profile) Var(key string) *VarSummary {
	i := sort.Search(len(s.Vars), func(i int) bool { return s.Vars[i].Key() >= key })
	if i < len(s.Vars) && s.Vars[i].Key() == key {
		return &s.Vars[i]
	}
	return nil
}

// Clone returns a deep copy of the sketch.
func (s *Profile) Clone() *Profile {
	out := &Profile{
		BlobID:     s.BlobID,
		Interval:   s.Interval,
		TotalTicks: s.TotalTicks,
		NumAlarms:  s.NumAlarms,
		HistLen:    s.HistLen,
		Hist:       make(map[int32]int64, len(s.Hist)),
		UnitsByPC:  make(map[int32]int64, len(s.UnitsByPC)),
		Vars:       make([]VarSummary, len(s.Vars)),
	}
	for pc, n := range s.Hist {
		out.Hist[pc] = n
	}
	for pc, n := range s.UnitsByPC {
		out.UnitsByPC[pc] = n
	}
	for i := range s.Vars {
		v := s.Vars[i]
		v.Values = v.Values.Clone()
		v.Deltas = v.Deltas.Clone()
		v.Runs = v.Runs.Clone()
		v.PCs = append([]int32(nil), v.PCs...)
		out.Vars[i] = v
	}
	return out
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
	if other.HistLen > s.HistLen {
		s.HistLen = other.HistLen
	}
	if s.Hist == nil {
		s.Hist = make(map[int32]int64, len(other.Hist))
	}
	for pc, n := range other.Hist {
		s.Hist[pc] += n
	}
	if s.UnitsByPC == nil {
		s.UnitsByPC = make(map[int32]int64, len(other.UnitsByPC))
	}
	for pc, n := range other.UnitsByPC {
		s.UnitsByPC[pc] += n
	}

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
			// the copied struct never aliases other's maps.
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
	out.Values = v.Values.Clone()
	out.Deltas = v.Deltas.Clone()
	out.Runs = v.Runs.Clone()
	out.PCs = append([]int32(nil), v.PCs...)
	return out
}
