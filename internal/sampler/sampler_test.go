package sampler_test

import (
	"testing"

	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/lang"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/vm"
)

// Figure-1-shaped program: a cheap caller holding the interesting variable,
// a costly callee dominating PC samples.
const callerCalleeSrc = `
var g_mode = 0;

func costly(n) {
	work(n);
	return n;
}

func scan(limit) {
	var available_mem = limit * 2;
	var done = 0;
	while (done < 20 && available_mem > 0) {
		costly(400);
		done++;
	}
	return available_mem;
}

func main() {
	g_mode = input(0);
	scan(input(0));
}
`

func buildProfiled(t *testing.T, src string, inputs ...int64) (*compiler.Program, *sampler.RunResult) {
	t.Helper()
	f, err := lang.Parse("prog.vp", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.GenerateIR(f, prog, schema.Options{})
	meta := schema.Translate(sch, prog.Debug)
	res := sampler.ProfileRun(prog, meta, vm.Config{Inputs: inputs}, sampler.Options{Interval: 37})
	return prog, res
}

func TestPCHistogramCoversCostlyFunc(t *testing.T) {
	prog, res := buildProfiled(t, callerCalleeSrc, 5)
	pr := res.Root()
	cost := pr.FuncPCCost(prog.Debug)
	if cost["costly"] == 0 {
		t.Fatal("no PC samples in costly")
	}
	if cost["costly"] <= cost["scan"] {
		t.Errorf("costly (%d) should dominate scan (%d) in PC cost", cost["costly"], cost["scan"])
	}
	// Total histogram samples equal the number of alarms.
	var histSum int64
	for _, n := range pr.Hist {
		histSum += n
	}
	if histSum != pr.NumAlarms {
		t.Errorf("hist sum %d != alarms %d", histSum, pr.NumAlarms)
	}
}

func TestUnwindingRecordsCallerVariables(t *testing.T) {
	prog, res := buildProfiled(t, callerCalleeSrc, 5)
	pr := res.Root()
	samples := pr.VarSamples("scan", "available_mem")
	if len(samples) == 0 {
		t.Fatal("no samples for caller variable available_mem")
	}
	// All samples carry the right value (limit*2 = 10).
	unwound := 0
	scanFn := prog.Debug.FuncNamed("scan")
	for _, s := range samples {
		if s.Value != 10 {
			t.Fatalf("available_mem sample = %d, want 10", s.Value)
		}
		if !scanFn.Contains(int(s.PC)) {
			t.Errorf("sample PC %d outside scan [%d,%d)", s.PC, scanFn.Entry, scanFn.End)
		}
		if s.StackDepth > 0 {
			unwound++
		}
	}
	if unwound == 0 {
		t.Error("no samples came from virtual unwinding")
	}
}

func TestUnwindDepthZeroDisablesUnwinding(t *testing.T) {
	f, err := lang.Parse("prog.vp", callerCalleeSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	meta := schema.Translate(schema.GenerateIR(f, prog, schema.Options{}), prog.Debug)
	res := sampler.ProfileRun(prog, meta, vm.Config{Inputs: []int64{5}}, sampler.Options{Interval: 37, UnwindDepth: -1})
	for _, s := range res.Root().Samples {
		if s.StackDepth != 0 {
			t.Fatalf("unwound sample recorded despite disabled unwinding: %+v", s)
		}
	}
}

func TestVariableBasedCostExceedsPCCost(t *testing.T) {
	// The paper's key effect: scan has few own PC samples but many value
	// samples via unwinding, so its distinct-sample-PC count can exceed
	// its own PC sample count.
	prog, res := buildProfiled(t, callerCalleeSrc, 5)
	pr := res.Root()
	units := pr.FuncValueSampleUnits(prog.Debug)
	if units["scan"] == 0 {
		t.Fatal("no value-sample units in scan")
	}
	// scan's value-sample cost must exceed its own PC-sample cost, since
	// unwinding records its variables at every alarm during costly().
	pcCost := pr.FuncPCCost(prog.Debug)
	if units["scan"]*pr.Interval <= pcCost["scan"] {
		t.Errorf("scan var cost %d <= pc cost %d; unwinding not inheriting callee cost",
			units["scan"]*pr.Interval, pcCost["scan"])
	}
}

func TestGlobalsSampledEverywhere(t *testing.T) {
	_, res := buildProfiled(t, callerCalleeSrc, 9)
	pr := res.Root()
	samples := pr.VarSamples(debuginfo.GlobalScope, "g_mode")
	if len(samples) == 0 {
		t.Fatal("global g_mode never sampled")
	}
	for _, s := range samples[5:] {
		if s.Value != 9 {
			t.Fatalf("g_mode = %d after assignment, want 9", s.Value)
		}
	}
}

func TestSampleTicksMonotone(t *testing.T) {
	_, res := buildProfiled(t, callerCalleeSrc, 5)
	pr := res.Root()
	var prev int64 = -1
	for _, s := range pr.Samples {
		if s.Tick < prev {
			t.Fatalf("sample ticks not monotone: %d after %d", s.Tick, prev)
		}
		prev = s.Tick
	}
}

func TestSampleChains(t *testing.T) {
	_, res := buildProfiled(t, callerCalleeSrc, 5)
	pr := res.Root()
	// Walking Link chains from the last sample of each VarNode must visit
	// samples in strictly decreasing index order without cycles.
	last := map[int32]int32{}
	for i, s := range pr.Samples {
		if s.Link >= int32(i) {
			t.Fatalf("sample %d links forward to %d", i, s.Link)
		}
		if s.Link >= 0 && pr.Samples[s.Link].VarNode != s.VarNode {
			t.Fatalf("sample %d links across variables", i)
		}
		last[s.VarNode] = int32(i)
	}
	if len(last) == 0 {
		t.Fatal("no samples at all")
	}
}

func TestDeterministicProfiles(t *testing.T) {
	_, res1 := buildProfiled(t, callerCalleeSrc, 5)
	_, res2 := buildProfiled(t, callerCalleeSrc, 5)
	a, b := res1.Root(), res2.Root()
	if len(a.Samples) != len(b.Samples) || a.NumAlarms != b.NumAlarms {
		t.Fatalf("profiles differ across identical runs: %d/%d samples, %d/%d alarms",
			len(a.Samples), len(b.Samples), a.NumAlarms, b.NumAlarms)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestAlarmPhaseChangesSamples(t *testing.T) {
	f, _ := lang.Parse("prog.vp", callerCalleeSrc)
	prog, _ := compiler.Compile(f)
	meta := schema.Translate(schema.GenerateIR(f, prog, schema.Options{}), prog.Debug)
	r1 := sampler.ProfileRun(prog, meta, vm.Config{Inputs: []int64{5}}, sampler.Options{Interval: 37})
	r2 := sampler.ProfileRun(prog, meta, vm.Config{Inputs: []int64{5}, AlarmPhase: 17}, sampler.Options{Interval: 37})
	if len(r1.Root().Samples) == 0 {
		t.Fatal("no samples")
	}
	same := len(r1.Root().Samples) == len(r2.Root().Samples)
	if same {
		for i := range r1.Root().Samples {
			if r1.Root().Samples[i] != r2.Root().Samples[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("alarm phase had no effect on samples")
	}
}

func TestMultiProcessProfiling(t *testing.T) {
	src := `
var cfg = 3;
func child_main(n) {
	var i = 0;
	while (i < n) { work(200); i++; }
}
func main() {
	spawn("child_main", 30);
	work(500);
}`
	prog, res := buildProfiled(t, src)
	if len(res.Profiles) != 2 {
		t.Fatalf("%d profiles, want 2", len(res.Profiles))
	}
	child := res.Profiles[1]
	cost := child.FuncPCCost(prog.Debug)
	if cost["child_main"] == 0 {
		t.Error("child process not profiled")
	}
	merged := sampler.MergeProfiles(res.Profiles)
	var mergedHist, rootHist, childHist int64
	for pc := range merged.Hist {
		mergedHist += merged.Hist[pc]
		rootHist += res.Profiles[0].Hist[pc]
		childHist += res.Profiles[1].Hist[pc]
	}
	if mergedHist != rootHist+childHist {
		t.Errorf("merged hist %d != %d + %d", mergedHist, rootHist, childHist)
	}
	if len(merged.Samples) != len(res.Profiles[0].Samples)+len(res.Profiles[1].Samples) {
		t.Error("merged samples lost records")
	}
}

func TestOverlapChains(t *testing.T) {
	// Two locals plus a global are accessible at the same PCs; all three
	// must be recorded at a single alarm via the link chain.
	src := `
var gg = 77;
func main() {
	var a = 11;
	var b = 22;
	if (a < b) { work(5000); }
	out(a + b + gg);
}`
	_, res := buildProfiled(t, src)
	pr := res.Root()
	if len(pr.VarSamples("main", "a")) == 0 {
		t.Error("a not sampled")
	}
	if len(pr.VarSamples("main", "b")) == 0 {
		t.Error("b not sampled")
	}
	if len(pr.VarSamples(debuginfo.GlobalScope, "gg")) == 0 {
		t.Error("gg not sampled")
	}
	for _, s := range pr.VarSamples("main", "a") {
		if s.Value != 11 {
			t.Fatalf("a = %d, want 11", s.Value)
		}
	}
	for _, s := range pr.VarSamples(debuginfo.GlobalScope, "gg") {
		if s.Value != 77 {
			t.Fatalf("gg = %d, want 77", s.Value)
		}
	}
}

func TestProfileMetrics(t *testing.T) {
	_, res := buildProfiled(t, callerCalleeSrc, 5)
	pr := res.Root()
	if pr.PCTableBytes <= 0 || pr.VarArrayBytes <= 0 {
		t.Errorf("metrics not populated: %+v", pr)
	}
	if pr.SampleBytes <= 0 || pr.TotalTicks <= 0 {
		t.Errorf("metrics not populated: %+v", pr)
	}
}

func TestPointerFlagPropagates(t *testing.T) {
	src := `
func main() {
	var p = alloc();
	if (p != 0) { work(3000); }
}`
	_, res := buildProfiled(t, src)
	pr := res.Root()
	samples := pr.VarSamples("main", "p")
	if len(samples) == 0 {
		t.Fatal("pointer variable not sampled")
	}
	for _, s := range samples {
		if !s.Ptr {
			t.Fatal("sample lost pointer flag")
		}
	}
	found := false
	for _, l := range pr.Layout {
		if l.Name == "p" && l.IsPointer {
			found = true
		}
	}
	if !found {
		t.Error("layout entry lost pointer flag")
	}
}
