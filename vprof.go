// Package vprof is a from-scratch Go reproduction of "Effective Performance
// Issue Diagnosis with Value-Assisted Cost Profiling" (EuroSys 2023): a
// gprof-style PC-sampling profiler that additionally records the values of
// performance-relevant program variables at every sampling alarm, plus the
// post-profiling analysis that compares a normal and a buggy execution to
// re-rank functions so the true root cause surfaces.
//
// Because native binaries cannot be instrumented from an offline pure-Go
// library, profiled applications are written in a small C-like language and
// executed on a deterministic tick-cost virtual machine (see DESIGN.md for
// the substitution map). The profiler itself — schema generation, variable
// metadata, PCToVarTable/VariableArray/SampleArray, virtual stack unwinding,
// Anderson-Darling + Hellinger discounting, bug-pattern classification — is
// implemented faithfully to the paper.
//
// Typical use:
//
//	prog, _ := vprof.Compile("app.vp", source)
//	sch := prog.GenerateSchema(vprof.SchemaOptions{})
//	normal, _ := prog.ProfileContext(ctx, vprof.RunSpec{Inputs: []int64{10}}, sch)
//	buggy, _ := prog.ProfileContext(ctx, vprof.RunSpec{Inputs: []int64{900}}, sch)
//	report, _ := vprof.AnalyzeContext(ctx, vprof.AnalyzeRequest{
//		Program: prog,
//		Schema:  sch,
//		Normal:  []*vprof.Profile{normal},
//		Buggy:   []*vprof.Profile{buggy},
//	}, vprof.WithWorkers(4))
//	fmt.Print(report.Render(10))
//
// The context cancels profiling runs (checked at each sampling alarm) and
// the analysis fan-out. AnalyzeRequest (plus the With* options) is the only
// analysis entry point.
package vprof

import (
	"context"
	"fmt"
	"strings"

	"vprof/internal/absint"
	"vprof/internal/analysis"
	"vprof/internal/causal"
	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/diag"
	"vprof/internal/lang"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/vm"
)

// Re-exported result types: the analysis report is the library's primary
// output.
type (
	// Report is a calibrated function ranking with bug-pattern
	// annotations.
	Report = analysis.Report
	// FuncReport is one ranked function.
	FuncReport = analysis.FuncReport
	// VariableReport is the discounter's verdict on one variable.
	VariableReport = analysis.VariableReport
	// Params are the analysis tunables (DefaultDiscount etc.).
	Params = analysis.Params
	// Pattern is an inferred bug pattern.
	Pattern = analysis.Pattern
	// Schema lists the variables selected for monitoring.
	Schema = schema.Schema
	// CoverageReport is the schema/debuginfo coverage verification result:
	// per-variable location counts, PC spans, gaps, and dropped entries.
	CoverageReport = schema.CoverageReport
	// CheckReport is the shared diagnostic report of the static checkers:
	// `vprof lint` (IR hygiene, debug-location coverage) and `vprof check`
	// (abstract-interpretation perf smells) both produce it.
	CheckReport = diag.Report
	// LintReport is the lint checker's report.
	//
	// Deprecated: lint and check share one report shape now; use
	// CheckReport. The alias is kept so existing callers compile unchanged.
	LintReport = diag.Report
	// Profile is a recorded execution profile (PC histogram + value
	// samples + layout log).
	Profile = sampler.Profile
)

// Bug patterns (paper §5.2).
const (
	PatternNC                = analysis.PatternNC
	PatternWrongConstraint   = analysis.PatternWrongConstraint
	PatternMissingConstraint = analysis.PatternMissingConstraint
	PatternScalability       = analysis.PatternScalability
)

// DefaultParams returns the paper's default analysis parameters
// (DefaultDiscount 0.8, ValidDiscount 0.1, Anderson-Darling p 0.05).
func DefaultParams() Params { return analysis.DefaultParams() }

// Program is a compiled target program with debug information.
type Program struct {
	ast      *lang.File
	compiled *compiler.Program
}

// Compile parses and compiles a target-program source file.
func Compile(path, source string) (*Program, error) {
	f, err := lang.Parse(path, source)
	if err != nil {
		return nil, err
	}
	p, err := compiler.Compile(f)
	if err != nil {
		return nil, err
	}
	return &Program{ast: f, compiled: p}, nil
}

// Functions returns the names of the program's functions, in program order
// (excluding synthetic entry code).
func (p *Program) Functions() []string {
	var out []string
	for _, f := range p.compiled.Funcs {
		if !f.Synthetic {
			out = append(out, f.Name)
		}
	}
	return out
}

// TextSize returns the number of instructions in the compiled text section.
func (p *Program) TextSize() int { return len(p.compiled.Instrs) }

// SchemaOptions controls schema generation (paper §3.1).
type SchemaOptions struct {
	// Functions, when non-empty, restricts monitored locals to these
	// functions (the paper's per-component restriction). Globals are
	// always monitored.
	Functions []string
	// SkipGlobals drops global variables from the schema.
	SkipGlobals bool
	// MinScore drops entries whose performance-relevance score is below
	// the bound (0 disables the filter).
	MinScore float64
	// MaxEntries caps the schema at the N highest-scoring entries
	// (0 = unlimited).
	MaxEntries int
	// StaticPriors folds the abstract interpreter's value evidence into
	// the relevance scores: trip-bound and work-feeding variables double,
	// provably-constant ones halve. Off by default; the default schema is
	// byte-for-byte unchanged.
	StaticPriors bool
}

// GenerateSchema runs the static analysis that selects variables to monitor:
// all globals, loop induction variables (detected on the compiled IR via
// dominator/natural-loop analysis), conditional-expression variables, and
// call arguments. Entries carry performance-relevance scores; MinScore and
// MaxEntries prune on them.
func (p *Program) GenerateSchema(opts SchemaOptions) *Schema {
	var filter func(string) bool
	if len(opts.Functions) > 0 {
		set := map[string]bool{}
		for _, f := range opts.Functions {
			set[f] = true
		}
		filter = func(name string) bool { return set[name] }
	}
	return schema.GenerateIR(p.ast, p.compiled, schema.Options{
		FuncFilter:   filter,
		SkipGlobals:  opts.SkipGlobals,
		MinScore:     opts.MinScore,
		MaxEntries:   opts.MaxEntries,
		StaticPriors: opts.StaticPriors,
	})
}

// VerifySchema cross-checks a schema against the program's debug
// information, reporting per-variable PC coverage: location entries, gaps
// (caller-saved registers spilled across calls), and variables with no
// location at all — the entries Metadata/Translate silently drop.
func (p *Program) VerifySchema(sch *Schema) *CoverageReport {
	return schema.Verify(sch, p.compiled.Debug)
}

// Lint runs the IR-level static checks over the program and its default
// schema: unreachable code, exit-less loops, constant and dead monitored
// variables, and debug-location coverage problems.
func (p *Program) Lint() *LintReport {
	return schema.Lint(p.ast, p.compiled)
}

// Check runs the abstract-interpretation perf-smell checker over the
// program: quadratic (or deeper) loop nests over correlated bounds,
// loops with no inferable trip bound, unbounded accumulation into work(),
// loop-invariant calls worth hoisting, value-level dead branches, and dead
// stores. Exit-code convention matches Lint: Report.ExitCode() is 1 when
// any warning-severity finding fired.
func (p *Program) Check() *CheckReport {
	return absint.CheckProgram(p.compiled)
}

// CostBounds returns the statically inferred worst-case cost bound of every
// function, rendered as a polynomial over symbolic loop bounds ("unbounded"
// marks costs the analyzer could not bound), keyed by function name.
func (p *Program) CostBounds() map[string]string {
	return absint.AnalyzeProgram(p.compiled).FunctionCosts()
}

// RunSpec parameterizes one execution of the target program.
type RunSpec struct {
	// Inputs are the workload parameters read by the program's input(k)
	// builtin.
	Inputs []int64
	// Seed drives the program's rand(n) builtin (default 1).
	Seed uint64
	// MaxTicks bounds the execution (hung programs are cut off; the
	// profile remains valid). 0 uses a large default.
	MaxTicks int64
	// AlarmPhase offsets the first sampling alarm, so repeated profiling
	// runs observe different instants.
	AlarmPhase int64
	// Interval is the sampling period in ticks (default 97).
	Interval int64
	// OffCPU profiles blocked (off-CPU) time instead of CPU time: alarms
	// fire on the wall clock and only instants spent inside the target's
	// block(n) builtin are recorded. This is the paper's §7 future-work
	// direction; the same value-assisted calibration applies.
	OffCPU bool
	// MaxWallTicks bounds wall-clock time for block()-heavy programs.
	MaxWallTicks int64
}

func (s RunSpec) vmConfig() vm.Config {
	return vm.Config{
		Inputs:       s.Inputs,
		Seed:         s.Seed,
		MaxTicks:     s.MaxTicks,
		MaxWallTicks: s.MaxWallTicks,
		AlarmPhase:   s.AlarmPhase,
	}
}

func (s RunSpec) interval() int64 {
	if s.Interval > 0 {
		return s.Interval
	}
	return sampler.DefaultInterval
}

// Run executes the program (and any spawned child processes) without
// profiling and returns the out() builtin's log and total simulated ticks.
func (p *Program) Run(spec RunSpec) (outputs []int64, ticks int64, err error) {
	procs := vm.RunProcesses(p.compiled, func(int) vm.Config { return spec.vmConfig() })
	for _, proc := range procs {
		outputs = append(outputs, proc.VM.Outputs...)
		ticks += proc.VM.Ticks()
		if proc.Err != nil && err == nil {
			err = proc.Err
		}
	}
	vm.RecycleProcesses(procs)
	return outputs, ticks, err
}

// Profile executes the program under the value-assisted profiler, monitoring
// the schema's variables, and returns the merged multi-process profile.
func (p *Program) Profile(spec RunSpec, sch *Schema) *Profile {
	prof, _ := p.ProfileContext(context.Background(), spec, sch)
	return prof
}

// ProfileContext is Profile with cooperative cancellation: the context is
// checked at every sampling alarm and the run is cut off once it is
// canceled, returning the partial profile alongside ctx.Err(). With a
// never-canceled context the profile is byte-for-byte the one Profile
// produces.
func (p *Program) ProfileContext(ctx context.Context, spec RunSpec, sch *Schema) (*Profile, error) {
	meta := schema.Translate(sch, p.compiled.Debug)
	res, err := sampler.ProfileRunContext(ctx, p.compiled, meta, spec.vmConfig(),
		sampler.Options{Interval: spec.interval(), OffCPU: spec.OffCPU})
	prof := sampler.MergeProfiles(res.Profiles)
	res.Recycle()
	return prof, err
}

// Disassemble renders the compiled text section with function and
// basic-block boundaries, source lines, and per-PC instructions.
func (p *Program) Disassemble() string {
	var b strings.Builder
	d := p.compiled.Debug
	for i := range d.Funcs {
		fn := &d.Funcs[i]
		kind := ""
		if fn.Library {
			kind = " [library]"
		}
		fmt.Fprintf(&b, "func %s [%d, %d)%s\n", fn.Name, fn.Entry, fn.End, kind)
		for bi := range fn.Blocks {
			blk := &fn.Blocks[bi]
			fmt.Fprintf(&b, "  %s (line %d):\n", blk.Label, blk.Line)
			for pc := blk.Start; pc < blk.End; pc++ {
				fmt.Fprintf(&b, "    %5d  %-20s ; line %d\n", pc, p.compiled.Instrs[pc].String(), d.LineAt(pc))
			}
		}
	}
	return b.String()
}

// Metadata returns the variable metadata (the paper's binary-static-analysis
// output) for a schema against this program's debug information.
func (p *Program) Metadata(sch *Schema) []debuginfo.VarLoc {
	return schema.Translate(sch, p.compiled.Debug)
}

// Debug exposes the program's DWARF-like debug information (function and
// basic-block ranges, line table, variable locations).
func (p *Program) Debug() *debuginfo.Info { return p.compiled.Debug }

// AnalyzeRequest bundles the inputs to the post-profiling analysis (the old
// 5-positional-argument Analyze call is gone). Profiles must have been
// produced with the same schema. The first profile of each side feeds the
// variable-discounter; all profiles feed the hist-discounter.
type AnalyzeRequest struct {
	// Program is the profiled program (source of debug information).
	Program *Program
	// Schema lists the monitored variables (tags drive classification).
	Schema *Schema
	// Normal and Buggy are the two executions' profiles.
	Normal []*Profile
	Buggy  []*Profile
	// Params are the analysis tunables; nil means DefaultParams. The
	// WithParams / WithWorkers options modify this field.
	Params *Params
}

// AnalyzeOption tweaks an AnalyzeRequest; pass options to AnalyzeContext.
type AnalyzeOption func(*AnalyzeRequest)

// WithParams replaces the request's analysis parameters.
func WithParams(p Params) AnalyzeOption {
	return func(r *AnalyzeRequest) { r.Params = &p }
}

// WithWorkers bounds the analysis worker pool (see Params.Workers): 0
// resolves a default via VPROF_WORKERS then GOMAXPROCS, 1 forces the
// sequential path. The report is identical for every value.
func WithWorkers(n int) AnalyzeOption {
	return func(r *AnalyzeRequest) {
		p := DefaultParams()
		if r.Params != nil {
			p = *r.Params
		}
		p.Workers = n
		r.Params = &p
	}
}

// AnalyzeContext runs the post-profiling analysis. The context cancels the
// analysis fan-out cooperatively (workers drain, ctx.Err() is returned);
// with a never-canceled context the report is byte-for-byte the sequential
// result.
func AnalyzeContext(ctx context.Context, req AnalyzeRequest, opts ...AnalyzeOption) (*Report, error) {
	for _, opt := range opts {
		opt(&req)
	}
	params := DefaultParams()
	if req.Params != nil {
		params = *req.Params
	}
	return analysis.AnalyzeContext(ctx, analysis.Input{
		Debug:  req.Program.compiled.Debug,
		Schema: req.Schema,
		Normal: req.Normal,
		Buggy:  req.Buggy,
	}, params)
}

// Diagnose is the one-call workflow of the paper's Figure 2: profile the
// program `runs` times under each spec (normal and buggy), analyze, and
// return the calibrated report. Profiling runs and the analysis fan out over
// params.Workers goroutines (see Params.Workers); the report is identical
// for every worker count.
func Diagnose(prog *Program, sch *Schema, normalSpec, buggySpec RunSpec, runs int, params Params) (*Report, error) {
	return DiagnoseContext(context.Background(), prog, sch, normalSpec, buggySpec, runs, params)
}

// DiagnoseContext is Diagnose with cooperative cancellation: profiling runs
// stop at the next sampling alarm after cancellation, the analysis fan-out
// drains, and ctx.Err() is returned. With a never-canceled context the
// report is byte-for-byte identical to Diagnose.
func DiagnoseContext(ctx context.Context, prog *Program, sch *Schema, normalSpec, buggySpec RunSpec, runs int, params Params) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if runs <= 0 {
		runs = 5
	}
	type pair struct{ normal, buggy *Profile }
	pairs, err := parallel.MapErrCtx(ctx, parallel.Workers(params.Workers), runs, func(i int) (pair, error) {
		n := normalSpec
		b := buggySpec
		n.AlarmPhase += int64(7 * i)
		b.AlarmPhase += int64(7 * i)
		n.Seed += uint64(i * 1000003)
		b.Seed += uint64(i * 1000003)
		np, err := prog.ProfileContext(ctx, n, sch)
		if err != nil {
			return pair{}, err
		}
		bp, err := prog.ProfileContext(ctx, b, sch)
		if err != nil {
			return pair{}, err
		}
		return pair{np, bp}, nil
	})
	if err != nil {
		return nil, err
	}
	var normal, buggy []*Profile
	for _, pr := range pairs {
		normal = append(normal, pr.normal)
		buggy = append(buggy, pr.buggy)
	}
	return AnalyzeContext(ctx, AnalyzeRequest{
		Program: prog,
		Schema:  sch,
		Normal:  normal,
		Buggy:   buggy,
		Params:  &params,
	})
}

// Causal-profiling re-exports: Coz-style virtual-speedup experiments on the
// deterministic tick VM (internal/causal).
type (
	// CausalOptions configures a sweep (speedup factors, granularity,
	// candidate selection, worker count).
	CausalOptions = causal.Options
	// CausalReport holds per-candidate speedup curves and the impact
	// ranking.
	CausalReport = causal.Report
	// CausalCurve is one candidate's speedup curve.
	CausalCurve = causal.Curve
)

// Causal runs Coz-style virtual-speedup experiments: for each candidate
// function (or basic block) the program is re-executed with that
// candidate's tick costs scaled down by each speedup factor, and the change
// in end-to-end runtime is measured. The result ranks candidates by how
// much optimizing them would actually help — "optimize f by p% → q%
// end-to-end speedup". Deterministic: byte-for-byte identical for every
// worker count.
func (p *Program) Causal(spec RunSpec, opts CausalOptions) (*CausalReport, error) {
	return p.CausalContext(context.Background(), spec, opts)
}

// CausalContext is Causal with cooperative cancellation: in-flight
// experiments stop at the VM's next tick-free poll alarm and ctx.Err() is
// returned.
func (p *Program) CausalContext(ctx context.Context, spec RunSpec, opts CausalOptions) (*CausalReport, error) {
	return causal.Run(ctx, p.compiled, spec.vmConfig(), opts)
}

// FormatCausal renders a causal report's impact ranking (top rows).
func FormatCausal(r *CausalReport, top int) string { return causal.Render(r, top) }

// FormatCausalCurve renders one candidate's full speedup curve.
func FormatCausalCurve(c *CausalCurve) string { return causal.RenderCurve(c) }

// FormatSchema renders a schema in the paper's textual format.
func FormatSchema(sch *Schema) string { return schema.Format(sch) }

// FormatSchemaScored renders a schema with the relevance score appended as
// a 7th field on every line.
func FormatSchemaScored(sch *Schema) string { return schema.FormatScored(sch) }

// Version identifies the library release.
const Version = "1.0.0"
