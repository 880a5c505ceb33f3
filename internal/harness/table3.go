package harness

import (
	"vprof/internal/analysis"
	"vprof/internal/baselines"
	"vprof/internal/bugs"
	"vprof/internal/parallel"
)

// DiagnoseWorkload runs the complete Table 3 protocol for one workload: the
// vProf pipeline (5+5 runs), the hist-discounter-only ablation (zero
// variables monitored), and the five baseline tools, on a pool of workers
// (0 resolves via internal/parallel: VPROF_WORKERS, then GOMAXPROCS). The
// row is byte-for-byte identical for every worker count.
func DiagnoseWorkload(w *bugs.Workload, workers int) (Table3Row, error) {
	b, err := w.Build()
	if err != nil {
		return Table3Row{}, err
	}
	return diagnose(b, workers)
}

// diagnose is DiagnoseWorkload on a built workload.
func diagnose(b *bugs.Built, workers int) (Table3Row, error) {
	w := b.W
	row := Table3Row{ID: w.ID, Ticket: w.Ticket, Paper: w.PaperRanks}

	params := analysis.DefaultParams()
	params.Workers = workers
	rep, err := b.Analyze(params)
	if err != nil {
		return row, err
	}
	row.VProfRank = rep.Rank(w.RootFunc)
	row.FalsePositive = FalsePositiveRatio(rep, b)
	row.BBMean, row.BBMin, row.BBOK = b.BBDist(rep)
	if fr := rep.Func(w.RootFunc); fr != nil {
		row.Pattern = fr.Pattern
		row.ClassMatch = fr.Pattern == w.Pattern
		row.ClassNC = fr.Pattern == analysis.PatternNC
	}

	histRep, err := HistDiscOnly(b, workers)
	if err != nil {
		return row, err
	}
	row.HistDisc = histRep.Rank(w.RootFunc)

	target := b.Target()
	row.Gprof = baselines.Gprof(target).Rank(w.RootFunc)
	row.Perf = baselines.Perf(target).Rank(w.RootFunc)
	row.PerfPT = baselines.PerfPT(target).Rank(w.RootFunc)
	coz := baselines.Coz(target)
	row.Coz = coz.Rank(w.RootFunc)
	row.CozFailure = coz.Failure
	if coz.Failure != "" {
		row.Coz = 0
	}
	row.StatDebug = baselines.StatDebug(target).Rank(w.RootFunc)
	return row, nil
}

// HistDiscOnly runs vProf with zero variables monitored, leaving only the
// hist-discounter (Table 3's hist-disc column), on a pool of workers (0
// resolves via internal/parallel).
func HistDiscOnly(b *bugs.Built, workers int) (*analysis.Report, error) {
	normal, buggy := b.Profiles(nil, nil, workers)
	p := analysis.DefaultParams()
	p.Workers = workers
	return analysis.Analyze(analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema, Normal: normal, Buggy: buggy}, p)
}

// FalsePositiveRatio computes the paper's §6.1 metric for one diagnosis:
// the number of top-5 functions ranked above the root cause that are
// *unrelated* to the performance issue, divided by five. Related functions
// are the root cause itself plus its call-graph ancestors and descendants
// (the paper counts callers/callees of the root cause as helpful, e.g.
// dummy_connection for HTTPD-54852, and genuinely-costly-either-way or
// side-effect functions as the false positives).
func FalsePositiveRatio(rep *analysis.Report, b *bugs.Built) float64 {
	related := relatedFunctions(b.Prog.CallGraph, b.W.RootFunc)
	rootRank := rep.Rank(b.W.RootFunc)
	if rootRank == 0 || rootRank > 5 {
		return 1
	}
	unrelated := 0
	for _, fr := range rep.Funcs {
		if fr.Rank >= rootRank {
			break
		}
		if !related[fr.Name] {
			unrelated++
		}
	}
	return float64(unrelated) / 5
}

// relatedFunctions returns the call-graph neighborhood of root: root, every
// transitive caller, and every transitive callee.
func relatedFunctions(callGraph map[string][]string, root string) map[string]bool {
	related := map[string]bool{root: true}
	// Descendants.
	var down func(fn string)
	down = func(fn string) {
		for _, callee := range callGraph[fn] {
			if !related[callee] {
				related[callee] = true
				down(callee)
			}
		}
	}
	down(root)
	// Ancestors: invert the graph.
	parents := map[string][]string{}
	for caller, callees := range callGraph {
		for _, callee := range callees {
			parents[callee] = append(parents[callee], caller)
		}
	}
	var up func(fn string)
	up = func(fn string) {
		for _, caller := range parents[fn] {
			if !related[caller] {
				related[caller] = true
				up(caller)
			}
		}
	}
	up(root)
	return related
}

// Table3 diagnoses every resolved workload and renders the table, with the
// per-workload diagnoses fanned out over a pool of workers (0 resolves via
// internal/parallel). Rows land in registry order and every row is
// deterministic, so the rendered table is byte-for-byte identical for any
// worker count.
func Table3(workers int) (string, []Table3Row, error) {
	workers = parallel.Workers(workers)
	rows, err := perWorkload(workers, bugs.All(), func(b *bugs.Built) (Table3Row, error) {
		return diagnose(b, workers)
	})
	if err != nil {
		return "", nil, err
	}
	return RenderTable3(rows), rows, nil
}
