package baselines

import "vprof/internal/sampler"

// Gprof ranks functions by flat PC-sample cost of the buggy execution, as
// gprof 2.34 does (Table 2): no normal-run comparison, no samples from
// dynamic libraries, and — unlike vProf's fixed gmon handling — samples only
// from the parent process (stock gprof's gmon.out is overwritten by each
// exiting process; in practice the children's data is lost).
func Gprof(t *Target) *Result {
	h := runWithHistogram(t.Prog, cfgWithPhase(t.BuggyCfg, 0), sampler.DefaultInterval, true)
	return &Result{
		Tool:  "gprof",
		Funcs: rankingFromScores(h.funcCosts(t.Prog, false)),
	}
}

// Perf ranks functions by flat PC-sample cost like gprof, but profiles
// system-wide: child processes and dynamic-library code are visible
// (Table 2: perf 5.11, default options).
func Perf(t *Target) *Result {
	h := runWithHistogram(t.Prog, cfgWithPhase(t.BuggyCfg, 0), sampler.DefaultInterval, false)
	return &Result{
		Tool:  "perf",
		Funcs: rankingFromScores(h.funcCosts(t.Prog, true)),
	}
}
