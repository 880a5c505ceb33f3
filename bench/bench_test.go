package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tiny cuts a workload down to two cheap issues and two baselines, so one
// round of it runs in about a second.
func tiny(name string) *workload {
	w := *workloads[name]
	w.issues = []string{"b13", "u2"}
	if w.baselines > 0 {
		w.baselines = 2
	}
	return &w
}

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 1, rounds: 1, setupReps: 1, trace: trace, dir: t.TempDir()}
}

// declaredMetrics reads the metric names BENCHMARK.json declares.
func declaredMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestWorkloadsPassGates runs one round of every workload, untraced and
// traced, and checks that its gates pass, that it reports exactly the
// metrics BENCHMARK.json declares, and that the traced spans form proper
// trees.
func TestWorkloadsPassGates(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want, mode := endToEnd, "untraced"
			if trace {
				want, mode = perLayer, "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				rep, tr, err := runWorkload(tiny(name), tinyConfig(t, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
				}
				if got := sortedKeys(rep.Metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
				}
				if trace {
					checkSpanTrees(t, tr.spans)
				}
			})
		}
	}
}

// checkSpanTrees asserts that children lie within their parents and that
// the self times of every tree sum to its root's duration.
func checkSpanTrees(t *testing.T, spans []Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	self := selfTimes(spans)
	treeSelf := map[int]int64{}
	for i, sp := range spans {
		if sp.End < sp.Start {
			t.Fatalf("span %+v ends before it starts", sp)
		}
		if sp.Parent != 0 {
			p := spans[sp.Parent-1]
			if sp.Start < p.Start || sp.End > p.End || sp.Op != p.Op {
				t.Fatalf("span %+v escapes its parent %+v", sp, p)
			}
		}
		treeSelf[rootOf(spans, i).ID] += self[i]
	}
	for id, sum := range treeSelf {
		if root := spans[id-1]; sum != root.dur() {
			t.Fatalf("self times of %s's tree sum to %d ns, root lasted %d ns", root.Name, sum, root.dur())
		}
	}
}

// TestCorruptRenderFailsGate serves a diagnosis, corrupts the kept render
// and expects the render gate to catch it.
func TestCorruptRenderFailsGate(t *testing.T) {
	s := newSession(tiny("diagnose"), tinyConfig(t, false))
	defer s.close()
	setupS, err := s.prepare()
	if err != nil {
		t.Fatal(err)
	}
	s.gen.checkOffset = 0 // check the first diagnosis
	if _, err := s.measure(setupS); err != nil {
		t.Fatal(err)
	}
	if len(s.checks) == 0 {
		t.Fatal("no diagnosis was kept for the render check")
	}
	s.checks[0].render += "\n"
	problems, _, err := s.gates()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		if strings.Contains(p, "served render differs") {
			return
		}
	}
	t.Fatalf("corrupted render passed the gate; problems: %v", problems)
}

// TestOpListIsSeeded checks that the op list is a pure function of the
// seed, and that its run indices and run ids are well formed.
func TestOpListIsSeeded(t *testing.T) {
	ops := func(wl *workload, seed int64) []op {
		g := newOpGen(wl, seed)
		out := g.setup()
		for r := 0; r < 3; r++ {
			out = append(out, g.round(r)...)
		}
		return out
	}
	for _, name := range workloadNames {
		wl := workloads[name]
		a, b := ops(wl, 7), ops(wl, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different op lists", name)
		}
		if reflect.DeepEqual(a, ops(wl, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", name)
		}
		ids := map[string]bool{}
		for _, o := range a {
			for _, run := range o.Runs {
				if run < 0 || run >= runSpace {
					t.Errorf("%s: op %d runs index %d outside [0, %d)", name, o.Seq, run, runSpace)
				}
			}
			if o.RunID == "" {
				continue
			}
			key := o.Issue + "/" + string(o.Label) + "/" + o.RunID
			if ids[key] {
				t.Errorf("%s: run id %s pushed twice", name, key)
			}
			ids[key] = true
		}
	}
}

// TestHDQuantile checks the Harrell-Davis estimator against the incomplete
// beta function's known values and the symmetry of an evenly spaced sample.
func TestHDQuantile(t *testing.T) {
	if got := regIncBeta(2, 3, 0.4); math.Abs(got-0.5248) > 1e-4 {
		t.Errorf("I_0.4(2, 3) = %v, want 0.5248", got)
	}
	if got := regIncBeta(0.5, 0.5, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("I_0.5(0.5, 0.5) = %v, want 0.5", got)
	}
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if got := hdQuantile(xs, 0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("median of 1..9 = %v, want 5", got)
	}
	if lo, hi := hdQuantile(xs, 0.1), hdQuantile(xs, 0.9); math.Abs(lo+hi-10) > 1e-9 || lo >= hi {
		t.Errorf("p10 %v and p90 %v of 1..9 are not symmetric about 5", lo, hi)
	}
}
