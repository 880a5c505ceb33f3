package baselines

import (
	"vprof/internal/compiler"
	"vprof/internal/vm"
)

// statDebugRuns is the number of normal and of buggy runs, per Table 2.
const statDebugRuns = 5

// StatDebug implements statistical performance debugging (Song & Lu, Table
// 2): it records *predicates* — conditional-branch outcomes and function
// return values — over several normal and buggy executions and ranks
// functions by how different their predicate distributions are. No execution
// costs are considered, which is the paper's point of contrast: predicates
// locate where behavior diverges (often the symptom), not where the time
// went wrong.
//
// Per Table 2, five normal and five buggy runs are used and predicates are
// restricted to the functions of the user-identified component.
func StatDebug(t *Target) *Result {
	normal := make([]*predicateTrace, statDebugRuns)
	buggy := make([]*predicateTrace, statDebugRuns)
	for i := range statDebugRuns {
		normal[i] = tracePredicates(t.normalProg(), cfgWithPhase(t.NormalCfg, i))
		buggy[i] = tracePredicates(t.Prog, cfgWithPhase(t.BuggyCfg, i))
	}

	// Mean truth probability per predicate on each side.
	preds := map[predKey]bool{}
	for _, tr := range normal {
		for k := range tr.branch {
			preds[k] = true
		}
	}
	for _, tr := range buggy {
		for k := range tr.branch {
			preds[k] = true
		}
	}

	scores := map[string]float64{}
	for k := range preds {
		fn := t.Prog.FuncAt(k.pc)
		if fn == nil && t.NormalProg != nil {
			fn = t.NormalProg.FuncAt(k.pc)
		}
		if fn == nil || fn.Synthetic || !t.inScope(fn.Name) {
			continue
		}
		d := meanProb(buggy, k) - meanProb(normal, k)
		if d < 0 {
			d = -d
		}
		if d > scores[fn.Name] {
			scores[fn.Name] = d
		}
	}
	// Return-value predicates: P(return > 0) per function.
	retFuncs := map[string]bool{}
	for _, tr := range append(normal, buggy...) {
		for fn := range tr.retPos {
			retFuncs[fn] = true
		}
	}
	for fn := range retFuncs {
		if !t.inScope(fn) || isSyntheticName(fn) {
			continue
		}
		d := meanRetProb(buggy, fn) - meanRetProb(normal, fn)
		if d < 0 {
			d = -d
		}
		if d > scores[fn] {
			scores[fn] = d
		}
	}
	return &Result{Tool: "stat-debug", Funcs: rankingFromScores(scores)}
}

type predKey struct {
	pc int
}

type branchStat struct {
	taken, total int64
}

type predicateTrace struct {
	branch map[predKey]*branchStat
	// retPos / retTotal count positive and total returns per function.
	retPos   map[string]int64
	retTotal map[string]int64
}

func tracePredicates(prog *compiler.Program, cfg vm.Config) *predicateTrace {
	tr := &predicateTrace{
		branch:   map[predKey]*branchStat{},
		retPos:   map[string]int64{},
		retTotal: map[string]int64{},
	}
	procs := vm.RunProcesses(prog, func(int) vm.Config {
		c := cfg
		c.OnBranch = func(pc int, taken bool) {
			k := predKey{pc}
			s := tr.branch[k]
			if s == nil {
				s = &branchStat{}
				tr.branch[k] = s
			}
			s.total++
			if taken {
				s.taken++
			}
		}
		c.OnReturn = func(fi int, v vm.Value) {
			name := prog.Funcs[fi].Name
			tr.retTotal[name]++
			if v.I > 0 || v.Ptr {
				tr.retPos[name]++
			}
		}
		return c
	})
	_ = procs
	return tr
}

func meanProb(traces []*predicateTrace, k predKey) float64 {
	var sum float64
	var n int
	for _, tr := range traces {
		s := tr.branch[k]
		if s == nil || s.total == 0 {
			continue
		}
		sum += float64(s.taken) / float64(s.total)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func meanRetProb(traces []*predicateTrace, fn string) float64 {
	var sum float64
	var n int
	for _, tr := range traces {
		total := tr.retTotal[fn]
		if total == 0 {
			continue
		}
		sum += float64(tr.retPos[fn]) / float64(total)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
