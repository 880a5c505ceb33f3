// Command vprof-eval regenerates the paper's evaluation tables and figures
// (§6) from the reproduction workloads.
//
// Usage:
//
//	vprof-eval                  # everything
//	vprof-eval -table 3         # one table (1, 2, 3, 4, 5)
//	vprof-eval -figure 8        # one figure (6, 7, 8)
//	vprof-eval -workers 8       # fan diagnoses out over 8 workers
//
// Each artifact has one entry point in internal/harness, which takes the
// -workers value as is: 0 resolves through internal/parallel (VPROF_WORKERS,
// then GOMAXPROCS). Every table and figure is byte-for-byte identical for
// any worker count, except Table 5's wall-clock columns; Figure 7 measures
// wall-clock overhead and always runs sequentially. Tables 3 and 4 and
// Figure 8 match the goldens in internal/harness/testdata/golden, apart
// from the one trailing newline printed after each artifact.
package main

import (
	"flag"
	"fmt"
	"os"

	"vprof/internal/harness"
)

func main() {
	table := flag.Int("table", 0, "render only this table (1-5)")
	figure := flag.Int("figure", 0, "render only this figure (6-8)")
	reps := flag.Int("reps", 3, "repetitions for wall-clock overhead measurements")
	workers := flag.Int("workers", 0, "worker pool for diagnoses (0 = VPROF_WORKERS or GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	all := *table == 0 && *figure == 0
	run := func(name string, fn func() (string, error)) {
		out, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "vprof-eval: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	if all || *table == 1 {
		run("table 1", func() (string, error) { return harness.Table1(), nil })
	}
	if all || *table == 2 {
		run("table 2", func() (string, error) { return harness.Table2(), nil })
	}
	if all || *table == 3 {
		run("table 3", func() (string, error) {
			text, _, err := harness.Table3(*workers)
			return text, err
		})
	}
	if all || *table == 4 {
		run("table 4", func() (string, error) {
			cases, err := harness.Table4(*workers)
			if err != nil {
				return "", err
			}
			return harness.RenderTable4(cases), nil
		})
	}
	if all || *table == 5 {
		run("table 5", func() (string, error) {
			rows, err := harness.Table5(*workers)
			if err != nil {
				return "", err
			}
			return harness.RenderTable5(rows), nil
		})
	}
	if all || *figure == 6 {
		run("figure 6", func() (string, error) {
			series, err := harness.Figure6()
			if err != nil {
				return "", err
			}
			return harness.RenderFigure6(series), nil
		})
	}
	if all || *figure == 7 {
		run("figure 7", func() (string, error) {
			rows, err := harness.Figure7(*reps)
			if err != nil {
				return "", err
			}
			return harness.RenderFigure7(rows), nil
		})
	}
	if all || *figure == 8 {
		run("figure 8", func() (string, error) {
			res, err := harness.Figure8(*workers)
			if err != nil {
				return "", err
			}
			return harness.RenderFigure8(res), nil
		})
	}
}
