// Package harness drives the paper's evaluation: it regenerates every table
// and figure of §6 from the workloads in package bugs, running vProf and the
// five baseline tools on each issue and formatting results next to the
// paper's published numbers.
package harness

import (
	"fmt"
	"strings"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/parallel"
)

// perWorkload builds every workload of ws and runs fn on it, fanned out
// over a pool of workers (already resolved by the caller). Results land in
// ws order; an error names its workload.
func perWorkload[T any](workers int, ws []*bugs.Workload, fn func(b *bugs.Built) (T, error)) ([]T, error) {
	return parallel.MapErr(workers, len(ws), func(i int) (T, error) {
		b, err := ws[i].Build()
		var v T
		if err == nil {
			v, err = fn(b)
		}
		if err != nil {
			return v, fmt.Errorf("%s: %w", ws[i].ID, err)
		}
		return v, nil
	})
}

// RankString renders a rank the way Table 3 does (1st, 2nd, 3rd, 4th, ...);
// 0 renders as NR.
func RankString(r int) string {
	if r <= 0 {
		return "NR"
	}
	switch r % 100 {
	case 11, 12, 13:
		return fmt.Sprintf("%dth", r)
	}
	switch r % 10 {
	case 1:
		return fmt.Sprintf("%dst", r)
	case 2:
		return fmt.Sprintf("%dnd", r)
	case 3:
		return fmt.Sprintf("%drd", r)
	default:
		return fmt.Sprintf("%dth", r)
	}
}

// Table1 renders the reproduced-issues inventory.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Reproduced real-world performance issues.\n\n")
	fmt.Fprintf(&b, "%-4s %-16s %-14s %-18s %s\n", "ID", "Ticket", "App", "Bug Pattern", "Description")
	for _, w := range bugs.All() {
		fmt.Fprintf(&b, "%-4s %-16s %-14s %-18s %s\n",
			w.ID, w.Ticket, w.App, w.Pattern, w.Description)
	}
	return b.String()
}

// Table2 renders the tool-configuration table.
func Table2() string {
	rows := []struct{ name, desc string }{
		{"gprof", "Flat PC-sample profile of the buggy run; no dynamic-library or child-process samples; default options."},
		{"perf", "System-wide PC-sample profile of the buggy run (children and library code visible); default options."},
		{"perf-PT", "perf with top-10 functions re-ranked by control-flow profiling: branch-count differences between normal and buggy runs scale each function's cost."},
		{"COZ", "Causal profiling: each basic block is virtually sped up and the end-to-end runtime change measured; observes the parent process only."},
		{"stat-debug", "Statistical debugging over predicates (branch outcomes, return values) from 5 normal and 5 buggy runs; no cost information."},
		{"vProf", "Value-assisted cost profiling: 5 normal + 5 buggy runs feed the hist-discounter, run 0 of each feeds the variable-discounter; variables restricted to the component containing the root cause."},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Configurations of tools to diagnose performance issues.\n\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %s\n", r.name, r.desc)
	}
	return b.String()
}

// Table3Row is one workload's diagnosis outcome across all tools.
type Table3Row struct {
	ID, Ticket string

	VProfRank int
	// FalsePositive is the paper's §6.1 ratio: unrelated functions ranked
	// above the root cause, out of five.
	FalsePositive float64
	BBMean        float64
	BBMin         float64
	BBOK          bool
	Pattern       analysis.Pattern
	ClassMatch    bool // inferred pattern matches ground truth
	ClassNC       bool // inferred pattern is NC

	// Baseline ranks; 0 = NR. Failures carry the annotation instead.
	Gprof, Perf, PerfPT, Coz, StatDebug, HistDisc int
	CozFailure                                    string

	Paper map[string]string
}

// Render formats rows in the paper's Table 3 layout, appending the paper's
// published values in brackets for comparison.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. Diagnosis effectiveness of tools (this reproduction vs [paper]).\n\n")
	fmt.Fprintf(&b, "%-4s | %-12s %-10s %-6s | %-13s %-12s %-13s %-13s %-13s %-12s\n",
		"ID", "vProf", "bb-dist", "class", "gprof", "perf", "perf-PT", "COZ", "stat-debug", "hist-disc")
	line := strings.Repeat("-", 130)
	fmt.Fprintln(&b, line)
	for _, r := range rows {
		bb := "n/a"
		if r.BBOK {
			bb = fmt.Sprintf("%.0f, %.0f", r.BBMean, r.BBMin)
		}
		class := "x"
		if r.ClassMatch {
			class = "ok"
		} else if r.ClassNC {
			class = "NC"
		}
		coz := RankString(r.Coz)
		if r.CozFailure != "" {
			coz = r.CozFailure
		}
		cell := func(mine string, tool string) string {
			return fmt.Sprintf("%s [%s]", mine, r.Paper[tool])
		}
		fmt.Fprintf(&b, "%-4s | %-12s %-10s %-6s | %-13s %-12s %-13s %-13s %-13s %-12s\n",
			r.ID,
			cell(RankString(r.VProfRank), "vprof"),
			bb,
			class,
			cell(RankString(r.Gprof), "gprof"),
			cell(RankString(r.Perf), "perf"),
			cell(RankString(r.PerfPT), "perf-PT"),
			cell(coz, "COZ"),
			cell(RankString(r.StatDebug), "stat-debug"),
			cell(RankString(r.HistDisc), "hist-disc"),
		)
	}
	fmt.Fprintln(&b, line)
	top5 := func(get func(Table3Row) int) int {
		n := 0
		for _, r := range rows {
			if v := get(r); v >= 1 && v <= 5 {
				n++
			}
		}
		return n
	}
	var fpSum float64
	for _, r := range rows {
		fpSum += r.FalsePositive
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "average false positive ratio (vProf, paper §6.1): %.1f%% [10.6%%]\n",
			100*fpSum/float64(len(rows)))
	}
	fmt.Fprintf(&b, "root cause in top-5: vProf %d/15 [15], gprof %d [6], perf %d [3], perf-PT %d [2], COZ %d [3], stat-debug %d [2], hist-disc %d [3]\n",
		top5(func(r Table3Row) int { return r.VProfRank }),
		top5(func(r Table3Row) int { return r.Gprof }),
		top5(func(r Table3Row) int { return r.Perf }),
		top5(func(r Table3Row) int { return r.PerfPT }),
		top5(func(r Table3Row) int { return r.Coz }),
		top5(func(r Table3Row) int { return r.StatDebug }),
		top5(func(r Table3Row) int { return r.HistDisc }),
	)
	return b.String()
}
