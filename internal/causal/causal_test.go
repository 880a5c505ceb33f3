package causal_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"vprof/internal/causal"
	"vprof/internal/compiler"
	"vprof/internal/lang"
	"vprof/internal/vm"
)

func compile(t *testing.T, src string) *compiler.Program {
	t.Helper()
	f, err := lang.Parse("t.vp", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// twoPhase spends ~80% of its time under hot and ~20% under cold, with a
// cheap driver delegating to both.
const twoPhase = `
func hot() { work(8000); return 0; }
func cold() { work(5000); return 0; }
func driver() {
  var i = 0;
  while (i < 5) { hot(); i = i + 1; }
  cold(); cold();
}
func main() { driver(); }`

func TestRunFuncGranularity(t *testing.T) {
	p := compile(t, twoPhase)
	rep, err := causal.Run(context.Background(), p, vm.Config{}, causal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Granularity != causal.GranFunc {
		t.Fatalf("granularity = %q", rep.Granularity)
	}
	if rep.Capped {
		t.Fatal("unexpected capped baseline")
	}
	if got, want := rep.Experiments, len(rep.Curves)*len(causal.DefaultSpeedups)+1; got != want {
		t.Fatalf("experiments = %d, want %d", got, want)
	}
	byName := map[string]causal.Curve{}
	for _, c := range rep.Curves {
		byName[c.Name] = c
	}
	hot, ok := byName["hot"]
	if !ok {
		t.Fatalf("no curve for hot; have %v", names(rep))
	}
	cold := byName["cold"]
	// hot is ~40k of ~50k ticks: its 95% point should approach 0.76.
	if hot.Impact < 0.7 || hot.Impact > 0.8 {
		t.Errorf("hot impact = %v, want ~0.76", hot.Impact)
	}
	if cold.Impact > hot.Impact {
		t.Errorf("cold impact %v > hot impact %v", cold.Impact, hot.Impact)
	}
	if rep.Curves[0].Name != "hot" {
		t.Errorf("top-ranked = %s, want hot", rep.Curves[0].Name)
	}
	// Curves are monotone in the speedup factor for this workload.
	for i := 1; i < len(hot.Points); i++ {
		if hot.Points[i].Delta < hot.Points[i-1].Delta {
			t.Errorf("hot curve not monotone at %d: %+v", i, hot.Points)
		}
	}
	// driver is a pure delegator: the exclusive-share gate drops it.
	if _, ok := byName["driver"]; ok {
		t.Error("driver passed the own-share gate despite delegating everything")
	}
}

func TestOwnShareGateBypass(t *testing.T) {
	p := compile(t, twoPhase)
	rep, err := causal.Run(context.Background(), p, vm.Config{}, causal.Options{
		Funcs: []string{"driver"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Curves) != 1 || rep.Curves[0].Name != "driver" {
		t.Fatalf("curves = %v, want [driver]", names(rep))
	}
	// Inclusive scaling of driver's whole extent removes nearly everything.
	if rep.Curves[0].Impact < 0.9 {
		t.Errorf("driver inclusive impact = %v, want ~0.95", rep.Curves[0].Impact)
	}
	// Naming every function admits every function.
	all, err := causal.Run(context.Background(), p, vm.Config{}, causal.Options{
		Funcs: []string{"hot", "cold", "driver", "main"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Curves) != 4 {
		t.Fatalf("requested curves = %v, want 4 functions", names(all))
	}
}

func TestRunBlockGranularity(t *testing.T) {
	p := compile(t, twoPhase)
	rep, err := causal.Run(context.Background(), p, vm.Config{}, causal.Options{
		Granularity: causal.GranBlock,
		Speedups:    []float64{0.5, 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Curves) == 0 {
		t.Fatal("no block curves")
	}
	top := rep.Curves[0]
	if !strings.HasPrefix(top.Name, "hot@") {
		t.Errorf("top block = %s, want a hot block", top.Name)
	}
	for _, c := range rep.Curves {
		if !strings.Contains(c.Name, "@") {
			t.Errorf("block curve name %q lacks func@label form", c.Name)
		}
		if len(c.Points) != 2 {
			t.Errorf("%s: %d points, want 2", c.Name, len(c.Points))
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	p := compile(t, twoPhase)
	cfg := vm.Config{Seed: 42}
	var reports []*causal.Report
	for _, workers := range []int{1, 8, 1} {
		rep, err := causal.Run(context.Background(), p, cfg, causal.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("report %d differs from report 0", i)
		}
	}
	a, _ := json.Marshal(reports[0])
	b, _ := json.Marshal(reports[1])
	if string(a) != string(b) {
		t.Fatal("workers=1 vs workers=8 reports not byte-for-byte identical")
	}
}

func TestRunCancellation(t *testing.T) {
	p := compile(t, twoPhase)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := causal.Run(done, p, vm.Config{}, causal.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestRunCancellationMidExperiment(t *testing.T) {
	// A long workload whose experiments are individually slow enough that
	// cancellation lands mid-run; the VM polls the context at a tick-free
	// alarm, so Run must return promptly with context.Canceled. The cancel
	// comes from inside the run: the baseline run takes as many branches
	// as one plain run of the program, so the branch after those is the
	// first experiment's, however the goroutines are scheduled.
	p := compile(t, `
func grind() { var i = 0; while (i < 2000) { work(1000); i = i + 1; } return 0; }
func main() { grind(); }`)
	var branches atomic.Int64
	count := vm.Config{OnBranch: func(int, bool) { branches.Add(1) }}
	if _, err := causal.MeasureTree(context.Background(), p, count); err != nil {
		t.Fatal(err)
	}
	baseline := branches.Swap(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := vm.Config{OnBranch: func(int, bool) {
		if branches.Add(1) == baseline+1 {
			cancel()
		}
	}}
	if _, err := causal.Run(ctx, p, cfg, causal.Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
}

func TestRunValidation(t *testing.T) {
	p := compile(t, twoPhase)
	ctx := context.Background()
	if _, err := causal.Run(ctx, p, vm.Config{}, causal.Options{Speedups: []float64{1.5}}); err == nil {
		t.Error("speedup 1.5 accepted")
	}
	if _, err := causal.Run(ctx, p, vm.Config{}, causal.Options{Speedups: []float64{0}}); err == nil {
		t.Error("speedup 0 accepted")
	}
	if _, err := causal.Run(ctx, p, vm.Config{}, causal.Options{Granularity: "line"}); err == nil {
		t.Error("granularity line accepted")
	}
	if _, err := causal.Run(ctx, p, vm.Config{}, causal.Options{Funcs: []string{"nope"}}); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := causal.Run(ctx, nil, vm.Config{}, causal.Options{}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := causal.ParseGranularity("word"); err == nil {
		t.Error("ParseGranularity accepted junk")
	}
	if g, err := causal.ParseGranularity(""); err != nil || g != causal.GranFunc {
		t.Errorf("ParseGranularity(\"\") = %v, %v", g, err)
	}
}

func TestSpanScalerMatchesCozArithmetic(t *testing.T) {
	s := causal.SpanScaler([]causal.Span{{Start: 10, End: 20}}, 0.5)
	if got := s(15, 7); got != 3 {
		t.Errorf("in-span: got %d, want 3", got)
	}
	if got := s(9, 7); got != 7 {
		t.Errorf("out-of-span: got %d, want 7", got)
	}
	if got := s(20, 7); got != 7 {
		t.Errorf("end is exclusive: got %d, want 7", got)
	}
}

func TestBudgetEscalation(t *testing.T) {
	// A workload that caps at the 4x budget but completes under the
	// escalated one: ~100k ticks with a 10k configured budget (4x = 40k,
	// escalated = 400k).
	p := compile(t, `
func slow() { work(100000); return 0; }
func main() { slow(); }`)
	rep, err := causal.Run(context.Background(), p, vm.Config{MaxTicks: 10_000}, causal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Capped {
		t.Fatal("escalation did not lift the cap")
	}
	if rep.Budget != 400_000 {
		t.Errorf("budget = %d, want 400000", rep.Budget)
	}
	// A genuinely unbounded workload stays capped at the original budget.
	inf := compile(t, `
func spin() { var i = 0; while (i < 2) { i = 0; } return 0; }
func main() { spin(); }`)
	rep, err = causal.Run(context.Background(), inf, vm.Config{MaxTicks: 10_000}, causal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Capped {
		t.Fatal("infinite loop not reported as capped")
	}
	if rep.Budget != 40_000 {
		t.Errorf("budget = %d, want 40000 (no escalation kept)", rep.Budget)
	}
	for _, c := range rep.Curves {
		if c.Impact != 0 {
			t.Errorf("%s: nonzero impact %v on an unbounded workload", c.Name, c.Impact)
		}
	}
}

func names(r *causal.Report) []string {
	var out []string
	for _, c := range r.Curves {
		out = append(out, c.Name)
	}
	return out
}

// BenchmarkCausalSweep measures one full func-granularity sweep (default
// factors) over the twoPhase program.
func BenchmarkCausalSweep(b *testing.B) {
	f, err := lang.Parse("t.vp", twoPhase)
	if err != nil {
		b.Fatal(err)
	}
	p, err := compiler.Compile(f)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := causal.Run(ctx, p, vm.Config{}, causal.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
