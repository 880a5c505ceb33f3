// Package bugs contains the reproduction workloads for the paper's
// evaluation: the 15 resolved performance issues of Table 1 (b1–b15) and the
// three unresolved issues of Table 4 (u1–u3), each modeled as a program in
// the source language whose control- and data-flow reproduces the shape of
// the real bug — a costly callee that misleads cost-only profilers, a cheap
// root-cause function holding the anomalous variables, and the normal/buggy
// input pair the paper's Table 2 methodology requires.
//
// Each workload records its ground truth (root-cause function, fix location,
// bug pattern) so the harness can score every tool the way Table 3 does.
package bugs

import (
	"fmt"
	"sort"
	"strings"

	"vprof/internal/analysis"
	"vprof/internal/baselines"
	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/lang"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/vm"
)

// DefaultMaxTicks bounds each process of a workload run; buggy executions
// that hang (endless loops) are cut off here, like an operator killing a
// stuck server.
const DefaultMaxTicks = 600_000

// DefaultInterval is the PC-sampling period used for the evaluation.
const DefaultInterval = 97

// Workload is one reproduced performance issue.
type Workload struct {
	// ID is the paper's bug id (b1..b15, u1..u3).
	ID string
	// Ticket is the upstream issue id (e.g. MDEV-21826).
	Ticket string
	// App is the application modeled (MariaDB, Apache httpd, Redis,
	// PostgreSQL).
	App string
	// Description matches Table 1 / Table 4.
	Description string
	// Pattern is the ground-truth bug pattern from Table 1.
	Pattern analysis.Pattern
	// Source is the program exhibiting the bug.
	Source string
	// SourceFile names the modeled source file (for schema output).
	SourceFile string
	// NormalSource, when non-empty, is a different program version used
	// for the normal runs (upgrade regressions: b13, u1, u3).
	NormalSource string
	// NormalInputs / BuggyInputs parameterize the two executions.
	NormalInputs, BuggyInputs []int64
	// MaxTicks overrides DefaultMaxTicks when nonzero.
	MaxTicks int64
	// RootFunc is the ground-truth root cause function.
	RootFunc string
	// FixMarker is a substring of the Source line where developers fixed
	// the bug (used to compute the bb-dist ground truth block).
	FixMarker string
	// Noise models the surrounding application: background subsystem
	// functions running identically in both executions (see NoisePack).
	Noise *NoisePack
	// CrashesCOZ reproduces the tool crash the paper hit on b7.
	CrashesCOZ bool
	// Unresolved marks Table 4 issues.
	Unresolved bool
	// Components optionally partitions functions into named source
	// components for per-component investigation (Table 4 workflow);
	// nil means the whole file is one component.
	Components map[string][]string
	// Notes records what the paper found, for EXPERIMENTS.md.
	Notes string
	// PaperRanks records Table 3's published ranks per tool ("1st",
	// "454th", "NR", "crash", "child"), keyed by tool name.
	PaperRanks map[string]string
	// PaperBBDist records Table 3's (mean, min) bb-dist, or nil.
	PaperBBDist []float64
	// PaperClassified records whether the paper's classifier matched
	// ("NC" cases are false).
	PaperClassified bool
}

func (w *Workload) maxTicks() int64 {
	if w.MaxTicks > 0 {
		return w.MaxTicks
	}
	return DefaultMaxTicks
}

// Built is a compiled, schema-analyzed workload ready to run.
type Built struct {
	W          *Workload
	Prog       *compiler.Program
	NormalProg *compiler.Program // == Prog when single-version
	Schema     *schema.Schema
	NormalSch  *schema.Schema
	Meta       []debuginfo.VarLoc
	NormalMeta []debuginfo.VarLoc
	// BuggySource/NormalSource are the final compiled sources (workload
	// source plus injected background noise).
	BuggySource, NormalSource string
}

// Build parses, compiles and schema-analyzes the workload.
func (w *Workload) Build() (*Built, error) {
	file := w.SourceFile
	if file == "" {
		file = w.ID + ".vp"
	}
	parse := func(src string) (*lang.File, *compiler.Program, error) {
		f, err := lang.Parse(file, src)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.ID, err)
		}
		p, err := compiler.Compile(f)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.ID, err)
		}
		return f, p, nil
	}
	buggySrc, err := injectNoise(w.Source, w.Noise)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.ID, err)
	}
	f, prog, err := parse(buggySrc)
	if err != nil {
		return nil, err
	}
	b := &Built{W: w, Prog: prog, NormalProg: prog, BuggySource: buggySrc, NormalSource: buggySrc}
	b.Schema = schema.GenerateIR(f, prog, schema.Options{})
	b.Meta = schema.Translate(b.Schema, prog.Debug)
	b.NormalSch, b.NormalMeta = b.Schema, b.Meta
	if w.NormalSource != "" {
		normalSrc, err := injectNoise(w.NormalSource, w.Noise)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.ID, err)
		}
		nf, nprog, err := parse(normalSrc)
		if err != nil {
			return nil, fmt.Errorf("normal version: %w", err)
		}
		b.NormalProg = nprog
		b.NormalSource = normalSrc
		b.NormalSch = schema.GenerateIR(nf, nprog, schema.Options{})
		b.NormalMeta = schema.Translate(b.NormalSch, nprog.Debug)
	}
	return b, nil
}

// MustBuild is Build for registry-driven code paths where workloads are
// statically known to compile (the test suite compiles every workload).
func (w *Workload) MustBuild() *Built {
	b, err := w.Build()
	if err != nil {
		panic(err)
	}
	return b
}

// NormalConfig returns the VM configuration for the run-th normal execution
// (deterministic per-run seed and alarm phase).
func (w *Workload) NormalConfig(run int) vm.Config {
	return vm.Config{
		Inputs:     w.NormalInputs,
		MaxTicks:   w.maxTicks(),
		Seed:       uint64(run*1000003 + 1),
		AlarmPhase: int64(7*run + 3),
	}
}

// BuggyConfig returns the VM configuration for the run-th buggy execution.
func (w *Workload) BuggyConfig(run int) vm.Config {
	return vm.Config{
		Inputs:     w.BuggyInputs,
		MaxTicks:   w.maxTicks(),
		Seed:       uint64(run*1000003 + 500009),
		AlarmPhase: int64(7*run + 5),
	}
}

// ProfileNormal profiles one normal execution (run index selects phase/seed),
// like ProfileMerged.
func (b *Built) ProfileNormal(run int) (*sampler.Profile, *sampler.RunResult) {
	return ProfileMerged(b.NormalProg, b.NormalMeta, b.W.NormalConfig(run))
}

// ProfileBuggy profiles one buggy execution, like ProfileMerged.
func (b *Built) ProfileBuggy(run int) (*sampler.Profile, *sampler.RunResult) {
	return ProfileMerged(b.Prog, b.Meta, b.W.BuggyConfig(run))
}

// ProfileMerged profiles one run of prog monitoring meta at DefaultInterval
// and returns the merged multi-process profile plus the raw result, already
// recycled: its TotalTicks, WallTime and scalar process state stay
// readable, its per-process profiles no longer hold samples.
func ProfileMerged(prog *compiler.Program, meta []debuginfo.VarLoc, cfg vm.Config) (*sampler.Profile, *sampler.RunResult) {
	res := sampler.ProfileRun(prog, meta, cfg, sampler.Options{Interval: DefaultInterval})
	merged := sampler.MergeProfiles(res.Profiles)
	res.Recycle()
	return merged, res
}

// Runs is the per-side profiling-run count (Table 2: 5 normal and 5 buggy).
const Runs = 5

// Profiles profiles runs 0..Runs-1 of both sides, the normal runs
// monitoring normalMeta and the buggy runs buggyMeta (nil monitors no
// variable), on a pool of workers resolved by parallel.Workers. Runs are
// independent (deterministic per-run seeds, read-only program and
// metadata), and run i of each side lands at index i for any pool size.
func (b *Built) Profiles(normalMeta, buggyMeta []debuginfo.VarLoc, workers int) (normal, buggy []*sampler.Profile) {
	profiles := parallel.Map(parallel.Workers(workers), 2*Runs, func(i int) *sampler.Profile {
		if i < Runs {
			p, _ := ProfileMerged(b.NormalProg, normalMeta, b.W.NormalConfig(i))
			return p
		}
		p, _ := ProfileMerged(b.Prog, buggyMeta, b.W.BuggyConfig(i-Runs))
		return p
	})
	return profiles[:Runs:Runs], profiles[Runs:]
}

// Analyze runs the full vProf pipeline: Runs normal and buggy profiling
// executions on p's worker pool, then post-profiling analysis.
func (b *Built) Analyze(p analysis.Params) (*analysis.Report, error) {
	normal, buggy := b.Profiles(b.NormalMeta, b.Meta, p.Workers)
	return analysis.Analyze(analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema, Normal: normal, Buggy: buggy}, p)
}

// Target packages the workload for the baseline tools.
func (b *Built) Target() *baselines.Target {
	return &baselines.Target{
		Prog:       b.Prog,
		NormalProg: b.NormalProg,
		NormalCfg:  b.W.NormalConfig(0),
		BuggyCfg:   b.W.BuggyConfig(0),
		Interval:   DefaultInterval,
		CrashesCOZ: b.W.CrashesCOZ,
	}
}

// FixBlock returns the basic-block label (in RootFunc) of the line matching
// FixMarker — the bb-dist ground truth. ok is false when the marker or
// function cannot be found.
func (b *Built) FixBlock() (string, bool) {
	line := b.fixLine()
	if line == 0 {
		return "", false
	}
	fn := b.Prog.Debug.FuncNamed(b.W.RootFunc)
	if fn == nil {
		return "", false
	}
	// Prefer a block containing an instruction on the fix line; fall back
	// to the block whose first line is closest.
	bestLabel, bestDist := "", 1<<30
	for _, blk := range fn.Blocks {
		for pc := blk.Start; pc < blk.End; pc++ {
			if b.Prog.Debug.LineAt(pc) == line {
				return blk.Label, true
			}
		}
		d := blk.Line - line
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestDist, bestLabel = d, blk.Label
		}
	}
	return bestLabel, bestLabel != ""
}

func (b *Built) fixLine() int {
	if b.W.FixMarker == "" {
		return 0
	}
	for i, l := range strings.Split(b.W.Source, "\n") {
		if strings.Contains(l, b.W.FixMarker) {
			return i + 1
		}
	}
	return 0
}

// BBDist computes the paper's bb-dist metric for a vProf report: the mean
// and minimum block-index distance between the blocks vProf flagged in the
// root-cause function and the fix block. ok is false when either side is
// missing (the paper's "n/a").
func (b *Built) BBDist(rep *analysis.Report) (mean, minimum float64, ok bool) {
	fix, ok := b.FixBlock()
	if !ok {
		return 0, 0, false
	}
	fr := rep.Func(b.W.RootFunc)
	if fr == nil || len(fr.Blocks) == 0 {
		return 0, 0, false
	}
	minimum = 1 << 30
	var sum float64
	for _, blk := range fr.Blocks {
		d := float64(b.Prog.Debug.BlockDistance(b.W.RootFunc, blk.Block, fix))
		if d < 0 {
			continue
		}
		sum += d
		if d < minimum {
			minimum = d
		}
	}
	if minimum == 1<<30 {
		return 0, 0, false
	}
	return sum / float64(len(fr.Blocks)), minimum, true
}

// registry is populated by the per-application files' init functions.
var registry []*Workload

func register(w *Workload) { registry = append(registry, w) }

// All returns the 15 resolved workloads (b1..b15), in id order.
func All() []*Workload {
	var out []*Workload
	for _, w := range registry {
		if !w.Unresolved {
			out = append(out, w)
		}
	}
	sortByID(out)
	return out
}

// UnresolvedIssues returns the Table 4 workloads (u1..u3).
func UnresolvedIssues() []*Workload {
	var out []*Workload
	for _, w := range registry {
		if w.Unresolved {
			out = append(out, w)
		}
	}
	sortByID(out)
	return out
}

// ByID returns the workload with the given id, or nil.
func ByID(id string) *Workload {
	for _, w := range registry {
		if w.ID == id {
			return w
		}
	}
	return nil
}

func sortByID(ws []*Workload) {
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i].ID, ws[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
}
