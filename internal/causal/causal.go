package causal

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"vprof/internal/compiler"
	"vprof/internal/parallel"
	"vprof/internal/vm"
)

// Granularity selects what a virtual-speedup experiment scales.
type Granularity string

const (
	// GranFunc scales a function's whole dynamic extent (inclusive).
	GranFunc Granularity = "func"
	// GranBlock scales one basic block's PC span (exclusive, COZ-style).
	GranBlock Granularity = "block"
)

// ParseGranularity validates a user-supplied granularity string.
func ParseGranularity(s string) (Granularity, error) {
	switch Granularity(s) {
	case GranFunc, GranBlock:
		return Granularity(s), nil
	case "":
		return GranFunc, nil
	}
	return "", fmt.Errorf("unknown granularity %q (want func or block)", s)
}

// DefaultSpeedups is the standard sweep: the fraction of the candidate's
// cost removed in each experiment.
var DefaultSpeedups = []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95}

// DefaultBudgetMultiplier stretches the workload's tick budget for
// experiment runs. Several reproduced issues are configured to hit their
// budget (that is the bug); with the budget also capping every perturbed
// run, no experiment could measure a delta. Running experiments under a
// generous multiple of the configured budget lets slowdowns that finish
// late — rather than never — differentiate.
const DefaultBudgetMultiplier = 4

// budgetEscalation is the one-shot extra stretch applied when the
// baseline still exhausts the multiplied budget: the budget grows by this
// factor and the baseline is re-measured once. If the escalated baseline
// completes (a very slow but finite workload), experiments run under the
// escalated budget; if it still caps (a genuinely unbounded workload,
// e.g. an infinite loop), the original budget is kept and the report's
// Capped flag records that no virtual speedup can be measured.
const budgetEscalation = 10

// DefaultMinOwnShare gates experiment candidates on measured exclusive
// CPU time: a candidate must account for at least this fraction of the
// baseline's CPU ticks at its own PCs. This mirrors COZ, which only runs
// experiments on lines where profile samples actually land — a pure
// delegator (main, thin wrappers) executes almost no instructions of its
// own, and "optimizing" it is not an actionable experiment: its inclusive
// impact merely restates its callees'.
const DefaultMinOwnShare = 0.002

// Options configures a causal profiling run.
type Options struct {
	// Speedups are the virtual-speedup fractions to sweep, each in (0,1).
	// They are sorted and deduplicated; empty means DefaultSpeedups.
	Speedups []float64
	// Granularity selects func (inclusive) or block (exclusive) scaling.
	// Empty means GranFunc.
	Granularity Granularity
	// Funcs optionally restricts candidates to the named functions, which
	// bypass the DefaultMinOwnShare gate.
	Funcs []string
	// Workers bounds experiment parallelism (see parallel.Workers).
	Workers int
}

// Point is one experiment outcome on a candidate's speedup curve.
type Point struct {
	// Speedup is the fraction of the candidate's cost virtually removed.
	Speedup float64 `json:"speedup"`
	// Wall is the measured end-to-end wall-tick total of the process tree.
	Wall int64 `json:"wall"`
	// Delta is the resulting program speedup: (baseline-Wall)/baseline.
	Delta float64 `json:"delta"`
	// Capped marks an experiment run that exhausted its tick budget.
	Capped bool `json:"capped,omitempty"`
}

// Curve is one candidate's full speedup curve.
type Curve struct {
	// Name is the function name, or "func@label" at block granularity.
	Name string `json:"name"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	// Points holds one entry per sweep factor, ascending by Speedup.
	Points []Point `json:"points"`
	// Impact is the program speedup at the most aggressive factor — the
	// causal answer to "how much does optimizing this buy end to end?".
	Impact float64 `json:"impact"`
	// OwnShare is the candidate's exclusive CPU share in the baseline
	// run (the gate that admitted it as a candidate).
	OwnShare float64 `json:"own_share"`
}

// Report is the result of a causal profiling run.
type Report struct {
	Granularity Granularity `json:"granularity"`
	Speedups    []float64   `json:"speedups"`
	// BaselineWall/BaselineCPU are the unperturbed process-tree totals.
	BaselineWall int64 `json:"baseline_wall"`
	BaselineCPU  int64 `json:"baseline_cpu"`
	// Budget is the per-process tick budget experiments ran under
	// (after any one-shot escalation of a capped baseline).
	Budget int64 `json:"budget"`
	// MinOwnShare is the exclusive-CPU-share gate candidates had to pass.
	MinOwnShare float64 `json:"min_own_share"`
	// Capped marks a baseline that exhausted the budget: deltas then
	// measure escape from the cap, not true runtime, and curves for a
	// genuinely unbounded workload are all-zero.
	Capped bool `json:"capped,omitempty"`
	// Experiments counts VM executions (baseline + one per point).
	Experiments int `json:"experiments"`
	// Curves is every candidate's curve, ranked by Impact descending
	// (ties broken by name) — the impact ranking.
	Curves []Curve `json:"curves"`
}

// candidate is one schedulable experiment target.
type candidate struct {
	name     string
	file     string
	line     int
	ownShare float64
	marked   []bool // func granularity: function-index flags
	span     Span   // block granularity: PC range
}

// Run executes the full experiment schedule for prog under cfg and returns
// the speedup curves and impact ranking.
//
// The schedule is deterministic: candidates are enumerated in text order
// from the program's debug info, factors are sorted ascending, and the
// flat candidate×factor job list is merged back in index order, so the
// report is byte-for-byte identical at any worker count and across runs.
// Run owns cfg's scaling hooks (CostScale, ScaleStack); any caller-set
// value is overwritten per experiment.
func Run(ctx context.Context, prog *compiler.Program, cfg vm.Config, opts Options) (*Report, error) {
	if prog == nil || prog.Debug == nil {
		return nil, fmt.Errorf("causal: program has no debug info")
	}
	gran := opts.Granularity
	if gran == "" {
		gran = GranFunc
	}
	if gran != GranFunc && gran != GranBlock {
		return nil, fmt.Errorf("causal: unknown granularity %q", gran)
	}
	speedups, err := normalizeSpeedups(opts.Speedups)
	if err != nil {
		return nil, err
	}

	if cfg.MaxTicks > 0 {
		cfg.MaxTicks *= DefaultBudgetMultiplier
	}
	if cfg.MaxWallTicks > 0 {
		cfg.MaxWallTicks *= DefaultBudgetMultiplier
	}
	cfg.CostScale = nil
	cfg.ScaleStack = nil
	cfg.ScaleSpan = nil

	// The baseline run doubles as the exclusive-time profile: an identity
	// CostScale hook sees every (pc, cost) charge without altering it.
	measureBaseline := func(c vm.Config) (Measurement, []int64, int64, error) {
		excl := make([]int64, len(prog.Instrs))
		var total int64
		c.CostScale = func(pc int, cost int64) int64 {
			if pc >= 0 && pc < len(excl) {
				excl[pc] += cost
			}
			total += cost
			return cost
		}
		m, err := MeasureTree(ctx, prog, c)
		return m, excl, total, err
	}
	base, excl, totalCPU, err := measureBaseline(cfg)
	if err != nil {
		return nil, err
	}
	if base.Capped {
		// One escalation attempt separates "very slow but finite" from
		// "unbounded": only a completed escalated baseline is kept.
		ecfg := cfg
		if ecfg.MaxTicks > 0 {
			ecfg.MaxTicks *= budgetEscalation
		}
		if ecfg.MaxWallTicks > 0 {
			ecfg.MaxWallTicks *= budgetEscalation
		}
		ebase, eexcl, etotal, err := measureBaseline(ecfg)
		if err != nil {
			return nil, err
		}
		if !ebase.Capped {
			cfg, base, excl, totalCPU = ecfg, ebase, eexcl, etotal
		}
	}

	cands, err := candidates(prog, gran, opts.Funcs, excl, totalCPU)
	if err != nil {
		return nil, err
	}

	// Flat candidate×factor schedule, fanned out with index-ordered merge.
	type job struct {
		cand    int
		speedup float64
	}
	jobs := make([]job, 0, len(cands)*len(speedups))
	for ci := range cands {
		for _, p := range speedups {
			jobs = append(jobs, job{cand: ci, speedup: p})
		}
	}
	points, err := parallel.MapErrCtx(ctx, opts.Workers, len(jobs), func(i int) (Point, error) {
		j := jobs[i]
		c := cands[j.cand]
		factor := 1 - j.speedup
		ecfg := cfg
		if gran == GranFunc {
			ecfg.ScaleStack = &vm.StackScale{Marked: c.marked, Factor: factor}
		} else {
			ecfg.ScaleSpan = &vm.SpanScale{Start: c.span.Start, End: c.span.End, Factor: factor}
		}
		m, err := MeasureTree(ctx, prog, ecfg)
		if err != nil {
			return Point{}, err
		}
		pt := Point{Speedup: j.speedup, Wall: m.Wall, Capped: m.Capped}
		if base.Wall > 0 {
			pt.Delta = float64(base.Wall-m.Wall) / float64(base.Wall)
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}

	curves := make([]Curve, len(cands))
	for ci, c := range cands {
		cv := Curve{Name: c.name, File: c.file, Line: c.line, OwnShare: c.ownShare}
		cv.Points = points[ci*len(speedups) : (ci+1)*len(speedups)]
		cv.Impact = cv.Points[len(cv.Points)-1].Delta
		curves[ci] = cv
	}
	sort.SliceStable(curves, func(i, j int) bool {
		if curves[i].Impact != curves[j].Impact {
			return curves[i].Impact > curves[j].Impact
		}
		return curves[i].Name < curves[j].Name
	})

	budget := cfg.MaxTicks
	if budget == 0 {
		// The VM applies its own default cap when no budget is configured;
		// report the limit runs actually executed under.
		budget = vm.DefaultMaxTicks
	}
	return &Report{
		Granularity:  gran,
		Speedups:     speedups,
		BaselineWall: base.Wall,
		BaselineCPU:  base.CPU,
		Budget:       budget,
		MinOwnShare:  DefaultMinOwnShare,
		Capped:       base.Capped,
		Experiments:  len(jobs) + 1,
		Curves:       curves,
	}, nil
}

// normalizeSpeedups sorts, deduplicates, and validates the sweep.
func normalizeSpeedups(in []float64) ([]float64, error) {
	if len(in) == 0 {
		in = DefaultSpeedups
	}
	out := make([]float64, 0, len(in))
	for _, p := range in {
		if math.IsNaN(p) || p <= 0 || p >= 1 {
			return nil, fmt.Errorf("causal: speedup %v outside (0,1)", p)
		}
		out = append(out, p)
	}
	sort.Float64s(out)
	uniq := out[:1]
	for _, p := range out[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	return uniq, nil
}

// candidates enumerates experiment targets in text order, skipping library
// code (no experiments outside the profiled executable, matching the
// paper's gprof blind spot discussion) and synthetic shims, and gating on
// exclusive CPU share from the baseline profile (excl, totalCPU) unless
// the function was explicitly requested.
func candidates(prog *compiler.Program, gran Granularity, only []string, excl []int64, totalCPU int64) ([]candidate, error) {
	var want map[string]bool
	if len(only) > 0 {
		want = make(map[string]bool, len(only))
		for _, n := range only {
			want[n] = true
		}
	}
	share := func(start, end int) float64 {
		if totalCPU <= 0 {
			return 0
		}
		var own int64
		for pc := start; pc < end && pc < len(excl); pc++ {
			own += excl[pc]
		}
		return float64(own) / float64(totalCPU)
	}
	var cands []candidate
	for fi := range prog.Debug.Funcs {
		fr := &prog.Debug.Funcs[fi]
		if fr.Library || strings.HasPrefix(fr.Name, "__") {
			continue
		}
		if want != nil && !want[fr.Name] {
			continue
		}
		requested := want != nil
		if requested {
			delete(want, fr.Name)
		}
		switch gran {
		case GranFunc:
			fn := prog.FuncNamed(fr.Name)
			if fn == nil {
				continue
			}
			s := share(fr.Entry, fr.End)
			if s < DefaultMinOwnShare && !requested {
				continue
			}
			marked := make([]bool, len(prog.Funcs))
			marked[fn.Index] = true
			cands = append(cands, candidate{
				name:     fr.Name,
				file:     fr.File,
				line:     fr.DeclLine,
				ownShare: s,
				marked:   marked,
			})
		case GranBlock:
			for bi := range fr.Blocks {
				blk := &fr.Blocks[bi]
				s := share(blk.Start, blk.End)
				if s < DefaultMinOwnShare && !requested {
					continue
				}
				cands = append(cands, candidate{
					name:     fr.Name + "@" + blk.Label,
					file:     fr.File,
					line:     blk.Line,
					ownShare: s,
					span:     Span{Start: blk.Start, End: blk.End},
				})
			}
		}
	}
	for n := range want {
		return nil, fmt.Errorf("causal: unknown function %q", n)
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("causal: no candidate functions")
	}
	return cands, nil
}
