package vm_test

// FuzzDiffExec mutates DSL program sources and runs every program that
// parses and compiles on both execution engines, asserting the full
// observable trace (result, globals, ticks, blocked ticks, instruction
// counts, runtime errors, and alarm firing PCs with stack snapshots)
// matches. The seed corpus is the repo's own programs — testdata files
// and all 18 bug workloads — plus checked-in regression seeds under
// testdata/fuzz/FuzzDiffExec exercising traps, spawn, blocking and
// recursion.

import (
	"reflect"
	"testing"

	"vprof/internal/compiler"
	"vprof/internal/lang"
	"vprof/internal/vm"
)

// fuzzDiffCases is the subset of the differential matrix the fuzzer runs
// per input: small budgets keep each execution bounded even for infinite
// loops the mutator produces.
func fuzzDiffCases() []diffCase {
	return []diffCase{
		{name: "plain", mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 20_000}
		}},
		{name: "cpu-alarm", mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 20_000, AlarmInterval: 61, AlarmPhase: 11}
		}},
		{name: "wall-alarm", mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 20_000, MaxWallTicks: 30_000, WallAlarmInterval: 83}
		}},
		{name: "scale-stack", mk: func(p *compiler.Program) vm.Config {
			marked := make([]bool, len(p.Funcs))
			for i := range marked {
				marked[i] = i%2 == 0
			}
			return vm.Config{MaxTicks: 20_000, AlarmInterval: 103, ScaleStack: &vm.StackScale{
				Marked: marked, Factor: 0.3,
			}}
		}},
		{name: "observe", observe: true, mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 10_000, CountCalls: true}
		}},
	}
}

func FuzzDiffExec(f *testing.F) {
	for _, src := range diffSources(f) {
		f.Add(src)
	}
	cases := fuzzDiffCases()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		file, err := lang.Parse("fuzz.vp", src)
		if err != nil {
			t.Skip()
		}
		p, err := compiler.Compile(file)
		if err != nil {
			t.Skip()
		}
		for _, c := range cases {
			tree := runTraced(p, c, []int64{3, 5, 8}, 99, vm.TreeEngine)
			reg := runTraced(p, c, []int64{3, 5, 8}, 99, vm.RegisterEngine)
			if !reflect.DeepEqual(tree, reg) {
				reportDiff(t, tree, reg)
				t.Fatalf("engine divergence under %s:\n%s", c.name, src)
			}
		}
	})
}
