package analysis

import (
	"context"
	"errors"
	"sort"

	"vprof/internal/debuginfo"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/sketch"
)

// ErrNoProfiles is returned when Analyze lacks a normal or buggy profile.
var ErrNoProfiles = errors.New("analysis: need at least one normal and one buggy profile")

// Analyze runs the complete post-profiling analysis and returns the
// calibrated function ranking with bug-pattern annotations.
func Analyze(in Input, p Params) (*Report, error) {
	return AnalyzeContext(context.Background(), in, p)
}

// AnalyzeContext is Analyze with cooperative cancellation: every fan-out
// stage (variable discounter, hist discounter, per-function attribution,
// classification) checks ctx and drains its workers once it is canceled,
// returning ctx.Err(). With a never-canceled context the computation — and
// its output, byte for byte — is identical to Analyze.
//
// The profiles are folded into sketches and analyzed by the sketch kernels:
// run 0 of each side in full (it feeds the variable-discounter), the other
// runs only as PC histograms (they feed the hist-discounter), and the raw
// buggy run 0 as the trail that localizes abnormal samples to blocks.
func AnalyzeContext(ctx context.Context, in Input, p Params) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(in.Normal) == 0 || len(in.Buggy) == 0 {
		return nil, ErrNoProfiles
	}
	// Folds are independent, so they fan out over the worker pool.
	runs := append(append([]*sampler.Profile(nil), in.Normal...), in.Buggy...)
	nNormal := len(in.Normal)
	folded, err := parallel.MapCtx(ctx, parallel.Workers(p.Workers), len(runs), func(i int) *sketch.Profile {
		if i == 0 || i == nNormal {
			return sketch.FromProfile(runs[i])
		}
		return sketch.FromHist(runs[i])
	})
	if err != nil {
		return nil, err
	}
	return AnalyzeSketchesContext(ctx, SketchInput{
		Debug:  in.Debug,
		Schema: in.Schema,
		Normal: folded[0],
		Corpus: CorpusOfSketches(folded[:nNormal], in.Debug),
		Buggy:  folded[nNormal:],
		Trail:  in.Buggy[0],
	}, p)
}

// AnalyzeSketches is AnalyzeSketchesContext with a background context.
func AnalyzeSketches(in SketchInput, p Params) (*Report, error) {
	return AnalyzeSketchesContext(context.Background(), in, p)
}

// AnalyzeSketchesContext runs the calibrated diagnosis over sketches:
// variable-discounter, variable-based cost, hist-discounter, ranking,
// classification and — when in.Trail is set — block localization.
// Cancellation mirrors AnalyzeContext; the report is identical for any
// worker count.
func AnalyzeSketchesContext(ctx context.Context, in SketchInput, p Params) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if in.Normal == nil || len(in.Buggy) == 0 {
		return nil, ErrNoProfiles
	}
	corpus := in.Corpus
	if corpus == nil {
		corpus = CorpusOfSketches([]*sketch.Profile{in.Normal}, in.Debug)
	}
	buggy := in.Buggy[0]

	// Variable-discounter over run 0 of each side.
	vars, err := analyzeVariables(ctx, p, in)
	if err != nil {
		return nil, err
	}
	attributed := attributeVariables(vars, buggy, in.Debug)

	// Raw costs from the buggy run: max of PC-sample cost and
	// variable-based cost (paper §5.1).
	pcCost := pcCostApp(buggy, in.Debug)
	varCost := map[string]float64{}
	if !p.DisableVarCost {
		units := map[string]int64{}
		for _, e := range buggy.UnitsByPC {
			if fn := in.Debug.FuncAt(int(e.Key)); fn != nil {
				units[fn.Name] += e.Count
			}
		}
		for fn, u := range units {
			f := in.Debug.FuncNamed(fn)
			if f == nil || f.Library || isSynthetic(fn) {
				continue
			}
			varCost[fn] = float64(u * buggy.Interval)
		}
	}

	// Hist-discounter for functions with no variable verdict.
	var hist map[string]float64
	if !p.DisableHistDiscounter {
		hist, err = histDiscounter(ctx, p, corpus, in.Buggy, in.Debug)
		if err != nil {
			return nil, err
		}
	}

	// The function universe: every application function with a PC or
	// variable-based cost.
	universe := make([]string, 0, len(pcCost)+len(varCost))
	for fn := range pcCost {
		universe = append(universe, fn)
	}
	for fn := range varCost {
		if _, ok := pcCost[fn]; !ok {
			universe = append(universe, fn)
		}
	}
	sort.Strings(universe)

	// Per-function cost attribution fans out over the worker pool; every
	// input (cost maps, attributed variables, hist ratios) is read-only
	// from here on and each index fills only its own row, so the rows —
	// and after the deterministic sort, the whole ranking — are identical
	// for any worker count.
	workers := parallel.Workers(p.Workers)
	report := &Report{Params: p, Variables: vars}
	funcs, err := parallel.MapCtx(ctx, workers, len(universe), func(i int) FuncReport {
		fn := universe[i]
		fr := FuncReport{
			Name:    fn,
			PCCost:  pcCost[fn],
			VarCost: varCost[fn],
		}
		fr.RawCost = fr.PCCost
		if fr.VarCost > fr.RawCost {
			fr.RawCost = fr.VarCost
		}

		// Function discount: the minimum discount among its tested
		// variables; hist-discounter only when no variable verdict
		// exists (paper §5.1). Attributed variables are pre-sorted, so
		// ties resolve deterministically (and in favor of tagged,
		// locally-declared variables, which carry more diagnostic
		// signal for the classifier).
		for _, vr := range attributed[fn] {
			if !vr.Tested {
				continue
			}
			if fr.TopVariable == nil || vr.Discount < fr.TopVariable.Discount {
				fr.TopVariable = vr
			}
		}
		switch {
		case fr.TopVariable != nil:
			fr.Discount = fr.TopVariable.Discount
			fr.DiscountSource = "variable"
		case hist != nil:
			if r, ok := hist[fn]; ok {
				fr.Discount = r
				fr.DiscountSource = "hist"
			} else {
				fr.DiscountSource = "none"
			}
		default:
			fr.DiscountSource = "none"
		}
		fr.Calibrated = fr.RawCost * (1 - fr.Discount)
		return fr
	})
	if err != nil {
		return nil, err
	}
	report.Funcs = funcs

	sort.Slice(report.Funcs, func(i, j int) bool {
		a, b := &report.Funcs[i], &report.Funcs[j]
		if a.Calibrated != b.Calibrated {
			return a.Calibrated > b.Calibrated
		}
		if a.RawCost != b.RawCost {
			return a.RawCost > b.RawCost
		}
		return a.Name < b.Name
	})
	for i := range report.Funcs {
		report.Funcs[i].Rank = i + 1
	}

	// Bug-pattern inference and block localization for every ranked
	// function (the paper reports them for top-ranked functions; having
	// them everywhere costs nothing and helps the harness). Rows are
	// disjoint, so this fans out too.
	if err := parallel.ForEachCtx(ctx, workers, len(report.Funcs), func(i int) {
		fr := &report.Funcs[i]
		var match *VariableReport
		fr.Pattern, match = classify(p, attributed[fr.Name], fr.TopVariable, fr.Rank == 1)
		if match != nil {
			fr.TopVariable = match
		}
		fr.Blocks = localizeBlocks(in.Debug, fr)
	}); err != nil {
		return nil, err
	}
	return report, nil
}

// localizeBlocks maps the top variable's abnormal sample PCs in fr's own
// function to basic blocks, most-hit first. Each distinct PC is counted
// first and looked up once; a block's line is that of its first PC in
// AbnormalPCs order.
func localizeBlocks(info *debuginfo.Info, fr *FuncReport) []BlockHit {
	if fr.TopVariable == nil || len(fr.TopVariable.AbnormalPCs) == 0 {
		return nil
	}
	fn := info.FuncNamed(fr.Name)
	if fn == nil {
		return nil
	}
	pcs := fr.TopVariable.AbnormalPCs
	mult := make([]int32, fn.End-fn.Entry)
	for _, pc := range pcs {
		if fn.Contains(pc) {
			mult[pc-fn.Entry]++
		}
	}
	counts := map[string]*BlockHit{}
	// The second pass meets each PC first in AbnormalPCs order and clears
	// its count, so later repeats are skipped.
	for _, pc := range pcs {
		if !fn.Contains(pc) || mult[pc-fn.Entry] == 0 {
			continue
		}
		n := int(mult[pc-fn.Entry])
		mult[pc-fn.Entry] = 0
		blk := fn.BlockAt(pc)
		if blk == nil {
			continue
		}
		if h, ok := counts[blk.Label]; ok {
			h.Count += n
			continue
		}
		counts[blk.Label] = &BlockHit{Block: blk.Label, Line: info.LineAt(pc), Count: n}
	}
	out := make([]BlockHit, 0, len(counts))
	for _, h := range counts {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// classify applies the paper's root-cause pattern rules (§5.2) in order,
// checking each rule against every anomalous variable attributed to the
// function. It returns the inferred pattern and the variable that matched
// (nil when no rule fired).
func classify(p Params, vars []*VariableReport, topVar *VariableReport, topRanked bool) (Pattern, *VariableReport) {
	var anomalous []*VariableReport
	for _, v := range vars {
		if v.Tested && v.Discount < p.DefaultDiscount {
			anomalous = append(anomalous, v)
		}
	}
	// Rule 1: a loop/conditional variable stays the same *abnormally*
	// long — a stuck streak well beyond anything the normal execution
	// exhibited -> Missing Constraint. The streak is the processing-cost
	// evidence even when another dimension produced the minimum ratio (a
	// single stuck value is one giant run-length observation, which
	// distribution tests dilute).
	for _, v := range anomalous {
		if (v.Tags.Has(schema.TagLoop) || v.Tags.Has(schema.TagCond)) && v.Stuck(p) {
			return PatternMissingConstraint, v
		}
	}
	// Rule 2: a loop induction variable has abnormal values or deltas ->
	// Scalability.
	for _, v := range anomalous {
		if v.Tags.Has(schema.TagLoop) && (v.Dimension == DimValue || v.Dimension == DimDelta) {
			return PatternScalability, v
		}
	}
	// Rule 3: a conditional-expression variable is abnormal -> Wrong
	// Constraint.
	for _, v := range anomalous {
		if v.Tags.Has(schema.TagCond) {
			return PatternWrongConstraint, v
		}
	}
	// Rule 4: the most costly function looks normal and only
	// non-basic-type (pointer) variables were sampled: without basic
	// values there is not enough information for the other patterns ->
	// Scalability.
	if topRanked && topVar != nil && topVar.IsPointer &&
		topVar.Dimension == DimCost && topVar.Discount >= p.DefaultDiscount {
		return PatternScalability, topVar
	}
	return PatternNC, nil
}
