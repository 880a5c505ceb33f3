// Package analysis implements vProf's post-profiling analysis (paper §5):
// cost calibration — the variable-discounter, hist-discounter and
// variable-based execution cost that together re-rank functions so that the
// root cause of a performance issue surfaces — and bug-pattern inference.
//
// Inputs are profiles of at least one normal and one buggy execution
// (paper's Table 2 configuration: 5 of each feed the hist-discounter, the
// first of each feeds the variable-discounter), plus the program's debug
// info and the monitoring schema (for variable tags). Every input is folded
// into mergeable per-variable sketches (internal/sketch) — the
// representation the service stores at ingest — and one set of kernels
// analyzes them; the raw buggy run 0 rides along to localize abnormal
// samples to basic blocks.
package analysis

import (
	"vprof/internal/debuginfo"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/sketch"
)

// Params are the tunables of the analysis, with the paper's defaults.
type Params struct {
	// DefaultDiscount is applied to variables whose normal/buggy sample
	// distributions are statistically indistinguishable (paper: 0.8).
	DefaultDiscount float64
	// ValidDiscount floors small discounts to zero so noisy value samples
	// do not reorder similarly suspicious functions (paper: 0.1).
	ValidDiscount float64
	// PValue is the Anderson-Darling significance threshold (paper: 0.05).
	PValue float64
	// MinSamples is the minimum per-side sample count for the statistical
	// tests; below it a side counts as "no information".
	MinSamples int
	// OneSidedSamples is the count at which samples appearing *only* in
	// the buggy (or only in the normal) execution are themselves
	// anomalous (the paper's MDEV-16289 diagnosis: 0 normal samples vs
	// 30+ buggy samples gave a zero discount).
	OneSidedSamples int
	// StuckFactor quantifies the classifier's "stays the same for an
	// abnormally long time" (rule 1): a variable counts as stuck when
	// its longest buggy-run value streak exceeds StuckFactor times the
	// longest streak seen in the normal execution.
	StuckFactor float64
	// Workers bounds the analysis worker pool that fans out per-variable
	// discounts, per-function cost attribution and hist-discounter
	// cross-comparisons: 0 resolves a default via VPROF_WORKERS then
	// GOMAXPROCS (see internal/parallel), 1 forces the sequential legacy
	// path. The report is byte-for-byte identical for every value.
	Workers int
	// DisableVarCost turns off the variable-based execution cost
	// (ablation).
	DisableVarCost bool
	// DisableHistDiscounter turns off the hist-discounter (Table 3's
	// "vProf without hist-discounter" configuration).
	DisableHistDiscounter bool
	// DimensionsValueOnly restricts the discounter to the value dimension
	// (ablation; the paper motivates deltas and processing costs).
	DimensionsValueOnly bool
}

// DefaultParams returns the paper's default parameters.
func DefaultParams() Params {
	return Params{
		DefaultDiscount: 0.8,
		ValidDiscount:   0.1,
		PValue:          0.05,
		MinSamples:      3,
		OneSidedSamples: 5,
		StuckFactor:     5,
	}
}

// Dimension identifies which anomaly dimension produced a discount.
type Dimension int

// The paper's three dimensions (§5.1): raw values, deltas of adjacent
// values, and processing costs (alarm intervals a value stays unchanged).
const (
	DimNone Dimension = iota
	DimValue
	DimDelta
	DimCost
)

func (d Dimension) String() string {
	switch d {
	case DimValue:
		return "value"
	case DimDelta:
		return "delta"
	case DimCost:
		return "cost"
	}
	return "none"
}

// Pattern is an inferred root-cause pattern (paper §5.2).
type Pattern int

// Patterns; PatternNC is the paper's "could not classify".
const (
	PatternNC Pattern = iota
	PatternWrongConstraint
	PatternMissingConstraint
	PatternScalability
)

func (p Pattern) String() string {
	switch p {
	case PatternWrongConstraint:
		return "WrongConstraint"
	case PatternMissingConstraint:
		return "MissingConstraint"
	case PatternScalability:
		return "Scalability"
	}
	return "NC"
}

// VariableReport is the discounter's verdict on one monitored variable.
type VariableReport struct {
	Func string // declaring function or debuginfo.GlobalScope
	Name string
	Tags schema.Tag
	// IsPointer marks non-basic-type pointers (only DimCost applies).
	IsPointer bool
	// Discount is the variable's discount ratio in [0,1]; lower is more
	// anomalous.
	Discount float64
	// Dimension achieved the minimum discount.
	Dimension Dimension
	// NormalCount/BuggyCount are per-tick deduplicated sample counts.
	NormalCount, BuggyCount int
	// AbnormalPCs are buggy-profile sample PCs whose values fall outside
	// the normal execution's range (or whose runs exceed normal run
	// lengths, for DimCost).
	AbnormalPCs []int
	// Tested reports whether enough data existed to run the statistics.
	Tested bool
	// MaxRunNormal/MaxRunBuggy are the longest same-value streaks (in
	// alarms) observed on each side, and RunsBuggy the number of buggy
	// streaks; together the classifier's stuck criterion.
	MaxRunNormal, MaxRunBuggy float64
	RunsBuggy                 int
}

// Stuck reports whether the variable stayed at one value abnormally long in
// the buggy execution (classifier rule 1's "stays the same for an abnormally
// long time"). Three conditions: the variable genuinely cycles during the
// buggy run (>= 3 streaks — a constant, or a value set once at
// initialization, carries no stuck signal); the normal execution provides
// baseline streaks to compare against; and the longest buggy streak exceeds
// StuckFactor times the longest normal streak.
func (v *VariableReport) Stuck(p Params) bool {
	if v.RunsBuggy < 3 || v.MaxRunNormal < 1 {
		return false
	}
	return v.MaxRunBuggy > p.StuckFactor*v.MaxRunNormal
}

// BlockHit localizes abnormal samples to a basic block.
type BlockHit struct {
	Block string // bb label
	Line  int
	Count int
}

// FuncReport is one row of the final ranking.
type FuncReport struct {
	Name string
	// PCCost is the gprof-style execution cost (non-library PC samples x
	// interval); VarCost is the variable-based execution cost; RawCost is
	// their max (paper §5.1).
	PCCost, VarCost, RawCost float64
	// Discount in [0,1] and where it came from: "variable", "hist" or
	// "none".
	Discount       float64
	DiscountSource string
	// Calibrated = RawCost * (1 - Discount).
	Calibrated float64
	// Rank is the 1-based position in the calibrated ranking.
	Rank int
	// TopVariable is the most anomalous variable attributed to the
	// function, if any.
	TopVariable *VariableReport
	// Pattern is the inferred bug pattern for top-ranked functions.
	Pattern Pattern
	// Blocks are the basic blocks containing abnormal samples, most hit
	// first.
	Blocks []BlockHit
}

// Report is the complete analysis output.
type Report struct {
	Params Params
	// Funcs are sorted by calibrated cost, highest (most suspicious)
	// first.
	Funcs []FuncReport
	// Variables holds every monitored variable's verdict, keyed by
	// "func\x00name".
	Variables map[string]*VariableReport
}

// Rank returns the 1-based rank of a function in the report, or 0 if the
// function does not appear.
func (r *Report) Rank(fn string) int {
	for _, f := range r.Funcs {
		if f.Name == fn {
			return f.Rank
		}
	}
	return 0
}

// Func returns the report row for fn, or nil.
func (r *Report) Func(fn string) *FuncReport {
	for i := range r.Funcs {
		if r.Funcs[i].Name == fn {
			return &r.Funcs[i]
		}
	}
	return nil
}

// Input bundles everything Analyze needs.
type Input struct {
	Debug  *debuginfo.Info
	Schema *schema.Schema
	// Normal and Buggy each hold one merged profile per run (use
	// sampler.MergeProfiles for multi-process runs). At least one of
	// each. Value samples are read from run 0 of each side only (it feeds
	// the variable-discounter), PC histograms from every run (they feed
	// the hist-discounter), so runs 1..n need not record values.
	Normal []*sampler.Profile
	Buggy  []*sampler.Profile
}

// SketchInput bundles the inputs of the sketch analysis.
type SketchInput struct {
	Debug  *debuginfo.Info
	Schema *schema.Schema
	// Normal is run 0 of the normal side (the variable-discounter's
	// baseline); Corpus summarizes every normal run's cost ranking for
	// the hist-discounter. A nil Corpus is rebuilt from Normal alone.
	Normal *sketch.Profile
	Corpus *Corpus
	// Buggy are the candidate runs' sketches: Buggy[0] feeds the
	// variable-discounter, all feed the hist cross-comparison (only
	// their PC histograms are read; see sketch.FromHist).
	Buggy []*sketch.Profile
	// Trail is the raw profile Buggy[0] was folded from. When set, each
	// anomalous variable's samples are replayed in time order to mark
	// the ones outside the normal range (VariableReport.AbnormalPCs) and
	// localize them to basic blocks (FuncReport.Blocks); when nil both
	// stay empty. Nothing else in the report depends on it.
	Trail *sampler.Profile
}
