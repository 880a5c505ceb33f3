package vm_test

import (
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/vm"
)

// BenchmarkEngineExec runs every workload's buggy configuration on the
// tree-walking reference interpreter and on the register engine. One op is
// a full MaxTicks-bounded run with no sampling alarms, so the number
// isolates dispatch cost; the per-workload tree/register ratio is what the
// register engine buys (BENCH_vm.json). Each VM is recycled, as in the hot
// drivers (causal experiments, profiling fan-outs), so arena reuse is part
// of what is measured.
func BenchmarkEngineExec(b *testing.B) {
	all := append(bugs.All(), bugs.UnresolvedIssues()...)
	for _, engine := range vm.Engines {
		for _, w := range all {
			engine, w := engine, w
			b.Run(w.ID+"/"+engine.Name, func(b *testing.B) {
				built, err := w.Build()
				if err != nil {
					b.Fatal(err)
				}
				cfg := built.W.BuggyConfig(0)
				b.ResetTimer()
				var ticks int64
				for i := 0; i < b.N; i++ {
					m := vm.New(built.Prog, cfg)
					_ = engine.Run(m)
					ticks += m.Ticks()
					m.Recycle()
				}
				b.ReportMetric(float64(ticks)/float64(b.N), "ticks/run")
			})
		}
	}
}
