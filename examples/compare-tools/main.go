// Tool comparison example: diagnose one issue with vProf and all five
// baseline tools of the paper's Table 2, and show where each one ranks the
// root cause — a single-row slice of Table 3.
//
// Run with: go run ./examples/compare-tools [bug-id]
package main

import (
	"fmt"
	"log"
	"os"

	"vprof/internal/analysis"
	"vprof/internal/baselines"
	"vprof/internal/bugs"
	"vprof/internal/harness"
)

func main() {
	id := "b4" // MDEV-15333 by default
	if len(os.Args) > 1 {
		id = os.Args[1]
	}
	w := bugs.ByID(id)
	if w == nil {
		log.Fatalf("unknown bug id %q (b1..b15, u1..u3)", id)
	}
	b, err := w.Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s (%s, %s): %s\n", w.ID, w.Ticket, w.App, w.Description)
	fmt.Printf("ground truth: root cause %s, pattern %s\n\n", w.RootFunc, w.Pattern)

	report, err := b.Analyze(analysis.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s root cause ranked %-6s", "vProf:", harness.RankString(report.Rank(w.RootFunc)))
	if fr := report.Func(w.RootFunc); fr != nil {
		fmt.Printf(" (pattern %s, discount %.2f)", fr.Pattern, fr.Discount)
	}
	fmt.Println()

	target := b.Target()
	show := func(name string, res *baselines.Result) {
		rank := harness.RankString(res.Rank(w.RootFunc))
		if res.Failure != "" {
			rank = res.Failure
		}
		top := "-"
		if len(res.Funcs) > 0 {
			top = res.Funcs[0].Name
		}
		fmt.Printf("%-12s root cause ranked %-6s (top: %s)\n", name+":", rank, top)
	}
	show("gprof", baselines.Gprof(target))
	show("perf", baselines.Perf(target))
	show("perf-PT", baselines.PerfPT(target))
	show("COZ", baselines.Coz(target))
	show("stat-debug", baselines.StatDebug(target))

	if hist, err := harness.HistDiscOnly(b, 0); err == nil {
		fmt.Printf("%-12s root cause ranked %-6s (vProf ablation: zero variables monitored)\n",
			"hist-disc:", harness.RankString(hist.Rank(w.RootFunc)))
	}
}
