// Command bench is vprof's end-to-end benchmark. It runs seeded, closed-loop
// op lists through the production wiring of the profiler, the service, the
// store and the cluster, checks every output it can recompute, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of an
// in-process replay) as `workload metric value unit` lines followed by one
// JSON object. See README.md for the workloads and metrics.
//
//	bench -workload <ingest|diagnose|cluster-mix|offline|all> -seed N [-seconds S] [-trace 0|1] [-spans file] [-json file]
//	bench compare [-benchmark BENCHMARK.json] A.jsonl B.jsonl
//
// Every workload runs in a fresh process: `-workload all` re-executes the
// binary once per workload, so process-wide memos, VM arena pools and the
// GC heap start cold each time, as they do for a user.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"vprof/internal/parallel"
)

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times each run sets its workload up; setup_s is the
// median.
const setupReps = 5

func benchMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ingest, diagnose, cluster-mix, offline, or all")
	seed := fs.Int64("seed", 1, "seed the op list is generated from")
	seconds := fs.Int("seconds", 15, "time to measure, as a fixed number of rounds that took about this long on the recording machine")
	trace := fs.Int("trace", 0, "1 replays the ops in-process with a span per layer call and reports per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the spans and the per-layer summary to this JSON-lines file")
	record := fs.String("json", "", "append the run's record, with every op latency, to this JSON-lines file")
	dir := fs.String("dir", ".bench_build/data", "directory for the run's stores; the run removes what it creates")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need -workload, a positive -seconds and -trace 0 or 1, and no other arguments")
		return 2
	}
	// Both sides of a comparison must run the shipped defaults.
	for _, env := range []string{"VPROF_ENGINE", parallel.EnvWorkers} {
		if v, ok := os.LookupEnv(env); ok {
			fmt.Fprintf(stderr, "bench: refusing to run with %s=%q set\n", env, v)
			return 2
		}
	}
	if *name == "all" {
		return runAll(args, *spans, stdout, stderr)
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v or all)\n", *name, workloadNames)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, wl.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rounds := max(1, int(math.Round(float64(*seconds)/wl.roundSeconds)))
	cfg := config{seed: *seed, rounds: rounds, setupReps: setupReps, trace: *trace == 1, dir: scratch}
	if cfg.trace {
		cfg.setupReps = 1 // the traced run reports no set-up time
	}
	rep, tr, err := runWorkload(wl, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	if tr != nil && *spans != "" {
		if err := tr.writeSpans(*spans, rep); err != nil {
			fmt.Fprintf(stderr, "bench: write spans: %v\n", err)
			return 1
		}
	}
	if *record != "" {
		if err := appendRecord(*record, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	printReport(stdout, stderr, rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a process of its own, passing the other
// flags through.
func runAll(args []string, spans string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames {
		var childArgs []string
		for i := 0; i < len(args); i++ {
			flagName, _, hasValue := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
			if flagName != "workload" && flagName != "spans" {
				childArgs = append(childArgs, args[i])
			} else if !hasValue {
				i++ // skip the separate value too; both are replaced below
			}
		}
		childArgs = append(childArgs, "-workload", name)
		if spans != "" {
			childArgs = append(childArgs, "-spans", spans+"."+name)
		}
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// printReport prints one `workload metric value unit` line per metric, the
// service counters and the traced self times, any gate failures on stderr,
// and finally the result object as the last line of stdout.
func printReport(stdout, stderr io.Writer, rep *report) {
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(stdout, "%s %s %s %s\n", rep.Workload, name, formatValue(m.Value), m.Unit)
	}
	for _, name := range sortedKeys(rep.Layers) {
		fmt.Fprintf(stdout, "%s self_ms_per_op.%s %s ms\n", rep.Workload, name, formatValue(rep.Layers[name]))
	}
	for _, name := range sortedKeys(rep.Counters) {
		fmt.Fprintf(stdout, "%s counter.%s %s count\n", rep.Workload, name, formatValue(rep.Counters[name]))
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stderr, "bench: %s: %s\n", rep.Workload, p)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Fprintln(stdout, string(out))
}

func appendRecord(path string, rep *report) (err error) {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(append(line, '\n'))
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatValue prints a metric value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
