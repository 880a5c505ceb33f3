// Package baselines implements the five comparison tools of the paper's
// Table 2 — gprof, perf, perf-PT, COZ and statistical debugging — on the
// same simulated substrate vProf runs on, so that Table 3's diagnosis
// effectiveness comparison can be regenerated.
//
// Each tool profiles the target itself (with whatever instrumentation it
// uses in reality), and reports a ranked list of suspicious functions. Each
// tool also reproduces its real-world failure modes: gprof loses samples in
// dynamic libraries and in child processes, COZ cannot follow children and
// crashes on one workload, perf-PT only re-ranks perf's top ten.
package baselines

import (
	"sort"

	"vprof/internal/compiler"
	"vprof/internal/vm"
)

// Failure kinds, matching Table 3's annotations.
const (
	FailNone  = ""
	FailCrash = "crash" // the tool crashed on this workload
	FailChild = "child" // root cause ran in a child process the tool cannot see
)

// RankedFunc is one row of a tool's output.
type RankedFunc struct {
	Name  string
	Score float64
}

// Result is a tool's ranking for one diagnosis attempt.
type Result struct {
	Tool    string
	Funcs   []RankedFunc // most suspicious first
	Failure string
}

// Rank returns the 1-based rank of fn, or 0 when the tool did not rank it
// (the paper's "NR").
func (r *Result) Rank(fn string) int {
	for i, f := range r.Funcs {
		if f.Name == fn {
			return i + 1
		}
	}
	return 0
}

// Target describes one diagnosis task: a program plus configurations
// reproducing the buggy and normal executions.
type Target struct {
	Prog *compiler.Program
	// NormalProg is the program used for normal runs; usually Prog, but
	// a different program version for upgrade-regression issues.
	NormalProg *compiler.Program
	NormalCfg  vm.Config
	BuggyCfg   vm.Config
	// CrashesCOZ reproduces the paper's b7, where COZ crashed.
	CrashesCOZ bool
	// Scope restricts line/predicate-level tools (COZ, stat-debug) to
	// the functions of the component the user identified; nil = all.
	Scope func(funcName string) bool
}

func (t *Target) normalProg() *compiler.Program {
	if t.NormalProg != nil {
		return t.NormalProg
	}
	return t.Prog
}

func (t *Target) inScope(fn string) bool {
	if t.Scope == nil {
		return true
	}
	return t.Scope(fn)
}

// rankingFromScores converts a score map to a sorted ranking, dropping
// non-positive scores.
func rankingFromScores(scores map[string]float64) []RankedFunc {
	out := make([]RankedFunc, 0, len(scores))
	for fn, s := range scores {
		if s <= 0 {
			continue
		}
		out = append(out, RankedFunc{Name: fn, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// cfgWithPhase returns cfg with a run-dependent alarm phase and seed so
// repeated runs sample differently, deterministically.
func cfgWithPhase(cfg vm.Config, run int) vm.Config {
	cfg.AlarmPhase = int64(7*run + 3)
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cfg.Seed += uint64(run * 1000003)
	return cfg
}

// histogram collects a PC histogram over a full process tree.
type histogram struct {
	counts []int64
	ticks  int64
}

// runWithHistogram executes the program's process tree, PC-sampling every
// process at the given interval. onlyRoot drops samples from child
// processes (gprof's unfixed multi-process behavior).
func runWithHistogram(prog *compiler.Program, cfg vm.Config, interval int64, onlyRoot bool) *histogram {
	h := &histogram{counts: make([]int64, len(prog.Instrs))}
	pid := 0
	procs := vm.RunProcesses(prog, func(p int) vm.Config {
		pid = p
		c := cfg
		c.AlarmInterval = interval
		record := !(onlyRoot && pid != 1)
		c.OnAlarm = func(m *vm.VM) {
			if record {
				pc := m.PC()
				if pc >= 0 && pc < len(h.counts) {
					h.counts[pc]++
				}
			}
		}
		return c
	})
	for _, p := range procs {
		h.ticks += p.VM.Ticks()
	}
	return h
}

// funcCosts aggregates a histogram per function. includeLibrary controls
// whether dynamic-library PCs are visible (perf sees them; gprof does not).
func (h *histogram) funcCosts(prog *compiler.Program, includeLibrary bool) map[string]float64 {
	out := map[string]float64{}
	for pc, n := range h.counts {
		if n == 0 {
			continue
		}
		fn := prog.FuncAt(pc)
		if fn == nil || fn.Synthetic {
			continue
		}
		if fn.Library && !includeLibrary {
			continue
		}
		out[fn.Name] += float64(n)
	}
	return out
}
