package harness

import (
	"context"
	"fmt"
	"strings"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/causal"
	"vprof/internal/parallel"
)

// CausalRow is one workload's calibrated-vs-causal rank comparison.
type CausalRow struct {
	ID   string
	Root string
	// CalibratedRank is the root cause's rank in vProf's calibrated
	// diagnosis (Table 3 protocol); 0 = not ranked.
	CalibratedRank int
	// CausalRank is the root cause's rank in the causal impact ranking
	// (func-granularity virtual-speedup experiments); 0 = not ranked.
	CausalRank int
	// Impact is the root cause's measured causal impact (end-to-end
	// speedup at the most aggressive factor).
	Impact float64
	// TopCausal is the function with the highest causal impact.
	TopCausal string
	// Spearman is the rank correlation between the calibrated and causal
	// rankings over their function intersection; meaningful when
	// Overlap >= 2.
	Spearman float64
	// Overlap is the size of that intersection.
	Overlap int
	// Capped marks a workload whose baseline exhausts even the escalated
	// experiment budget (unbounded loops): causal impacts are then
	// unmeasurable and reported as zero.
	Capped bool
}

// CausalValidation runs the causal rank-validation protocol over all 18
// reproduced issues: vProf's calibrated diagnosis ranks the root cause from
// sampled value profiles, the causal engine ranks it by measured virtual-
// speedup impact, and the table reports how the two orderings agree. Rows
// fan out over a pool of workers (0 resolves via internal/parallel) and
// land in registry order; both pipelines are deterministic, so the table
// is byte-for-byte identical at any worker count.
func CausalValidation(workers int) (string, []CausalRow, error) {
	workers = parallel.Workers(workers)
	rows, err := perWorkload(workers, append(bugs.All(), bugs.UnresolvedIssues()...), func(b *bugs.Built) (CausalRow, error) {
		return causalRow(b, workers)
	})
	if err != nil {
		return "", nil, err
	}
	return RenderCausalTable(rows), rows, nil
}

func causalRow(b *bugs.Built, workers int) (CausalRow, error) {
	w := b.W
	row := CausalRow{ID: w.ID, Root: w.RootFunc}

	params := analysis.DefaultParams()
	params.Workers = workers
	rep, err := b.Analyze(params)
	if err != nil {
		return row, err
	}
	row.CalibratedRank = rep.Rank(w.RootFunc)

	crep, err := causal.Run(context.Background(), b.Prog, w.BuggyConfig(0), causal.Options{
		Workers: workers,
	})
	if err != nil {
		return row, err
	}
	row.Capped = crep.Capped
	if len(crep.Curves) > 0 {
		row.TopCausal = crep.Curves[0].Name
	}
	var causalOrder []string
	for i, c := range crep.Curves {
		causalOrder = append(causalOrder, c.Name)
		if c.Name == w.RootFunc {
			row.CausalRank = i + 1
			row.Impact = c.Impact
		}
	}
	var calibOrder []string
	for _, f := range rep.Funcs {
		calibOrder = append(calibOrder, f.Name)
	}
	row.Spearman, row.Overlap = spearman(calibOrder, causalOrder)
	return row, nil
}

// spearman computes the Spearman rank correlation between two ranked name
// lists over their intersection, re-ranking each side 1..n within the
// intersection. Degenerate intersections (n < 2) return rho 0.
func spearman(a, b []string) (float64, int) {
	inB := make(map[string]bool, len(b))
	for _, n := range b {
		inB[n] = true
	}
	common := make(map[string]bool)
	for _, n := range a {
		if inB[n] {
			common[n] = true
		}
	}
	n := len(common)
	if n < 2 {
		return 0, n
	}
	rank := func(order []string) map[string]int {
		r := make(map[string]int, n)
		i := 0
		for _, name := range order {
			if common[name] {
				i++
				r[name] = i
			}
		}
		return r
	}
	ra, rb := rank(a), rank(b)
	var d2 int
	for name := range common {
		d := ra[name] - rb[name]
		d2 += d * d
	}
	return 1 - float64(6*d2)/float64(n*(n*n-1)), n
}

// RenderCausalTable formats the rank-validation table with its agreement
// summary. Output is deterministic, so tests gate it byte-for-byte.
func RenderCausalTable(rows []CausalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Causal validation. vProf calibrated rank vs causal virtual-speedup impact rank (func granularity).\n\n")
	fmt.Fprintf(&b, "%-4s %-34s %-6s %-7s %-8s %-10s %-9s %s\n",
		"ID", "root cause", "calib", "causal", "impact", "spearman", "overlap", "top causal function")
	line := strings.Repeat("-", 118)
	fmt.Fprintln(&b, line)
	top3, spSum, spN := 0, 0.0, 0
	for _, r := range rows {
		if r.CausalRank >= 1 && r.CausalRank <= 3 {
			top3++
		}
		sp := "n/a"
		if r.Overlap >= 2 {
			sp = fmt.Sprintf("%.2f", r.Spearman)
			spSum += r.Spearman
			spN++
		}
		impact := fmt.Sprintf("%.1f%%", r.Impact*100)
		top := r.TopCausal
		if r.Capped {
			top += " (capped)"
		}
		fmt.Fprintf(&b, "%-4s %-34s %-6s %-7s %-8s %-10s %-9d %s\n",
			r.ID, r.Root, RankString(r.CalibratedRank), RankString(r.CausalRank),
			impact, sp, r.Overlap, top)
	}
	fmt.Fprintln(&b, line)
	fmt.Fprintf(&b, "root cause in causal top-3: %d/%d", top3, len(rows))
	if spN > 0 {
		fmt.Fprintf(&b, "   mean Spearman: %.2f (over %d workloads with overlap >= 2)", spSum/float64(spN), spN)
	}
	fmt.Fprintln(&b)
	return b.String()
}
