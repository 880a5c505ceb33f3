package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"vprof/internal/stats"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of runs (JSON-lines files written with
// -json): for each workload and end-to-end metric it prints each side's
// median and quartiles and a verdict against the metric's bound, and for
// the op latencies the k-sample Anderson-Darling p-value over every op of
// every run. It exits 1 when a metric regressed beyond its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-benchmark BENCHMARK.json] before.jsonl after.jsonl")
		return 2
	}
	var sp spec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %s: %v\n", *specPath, err)
		return 2
	}
	before, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	after, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}

	status := 0
	for _, wl := range sortedKeys(before) {
		a, b := before[wl], after[wl]
		if len(b) == 0 {
			fmt.Fprintf(stdout, "%s: no runs in %s\n", wl, fs.Arg(1))
			continue
		}
		fmt.Fprintf(stdout, "%s (%d vs %d runs)\n", wl, len(a), len(b))
		for _, m := range sp.EndToEnd {
			av, bv := values(a, m.Name), values(b, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			qa, qb := quartiles(av), quartiles(bv)
			v := verdict(av, bv, m.Better, m.Bound)
			if v == "regression" {
				status = 1
			}
			fmt.Fprintf(stdout, "  %-14s %12.6g [%.6g, %.6g]  %12.6g [%.6g, %.6g]  %+6.1f%%  bound %4.1f%%  %s\n",
				m.Name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*(qb[1]-qa[1])/qa[1], 100*m.Bound, v)
		}
		la, lb := latencies(a), latencies(b)
		if res, err := stats.ADKSample(la, lb); err == nil {
			shift := "no shift detected"
			if res.P < 0.05 {
				shift = "the distributions differ"
			}
			fmt.Fprintf(stdout, "  op latency: Anderson-Darling p=%.3g over %d and %d ops (%s)\n", res.P, len(la), len(lb), shift)
		}
	}
	return status
}

// readRecords loads the untraced runs of a JSON-lines file, by workload.
func readRecords(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<28)
	for line := 1; sc.Scan(); line++ {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

func values(runs []*report, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func latencies(runs []*report) []float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.LatencyMS...)
	}
	return xs
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// verdict judges the second set of runs against the first. When either
// side's quartile spread exceeds the bound the result is unresolved, unless
// every run of one side beats every run of the other.
func verdict(before, after []float64, better string, bound float64) string {
	qa, qb := quartiles(before), quartiles(after)
	worse := (qb[1] - qa[1]) / qa[1]
	if better == "higher" {
		worse = -worse
	}
	spread := math.Max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
	if spread > bound {
		switch {
		case separated(before, after, better):
			return "better in every run"
		case separated(after, before, better):
			return "worse in every run"
		}
		return fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
	}
	switch {
	case worse > bound:
		return "regression"
	case worse < -bound:
		return "better"
	}
	return "within bound"
}

// separated reports whether every value of b is better than every value of a.
func separated(a, b []float64, better string) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
