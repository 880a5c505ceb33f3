package analysis_test

import (
	"strings"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/lang"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/stats"
	"vprof/internal/vm"
)

// recoverySrc models the paper's Figure 1 (MDEV-21826): recv_sys_init
// mis-sizes recv_n_pool_free_frames; recv_group_scan_log_recs derives a zero
// available_mem from it; recv_scan_log_recs then never reports "finished",
// so recovery keeps rescanning the same LSN range forever, wasting time in
// the costly recv_apply_hashed_log_recs. The buggy run is stopped by the
// tick budget, as a hung recovery would be killed by the operator.
//
// input(0) = buffer pool pages (divisible by 3 => available_mem == 0).
const recoverySrc = `
var recv_n_pool_free_frames;
var srv_page_size = 8;
var log_end = 40;

func buf_pool_get_n_pages() {
	return input(0);
}

func recv_sys_init() {
	recv_n_pool_free_frames = buf_pool_get_n_pages() / 3;
}

func recv_parse_log_recs(available_mem, batch) {
	work(150);
	if (available_mem <= 0) {
		return false;
	}
	if (batch >= log_end) {
		return true;
	}
	return false;
}

func recv_apply_hashed_log_recs() {
	work(450);
	return 0;
}

func recv_scan_log_recs(available_mem, batch) {
	if (recv_parse_log_recs(available_mem, batch)) {
		return true;
	}
	return false;
}

func recv_group_scan_log_recs(ckpt) {
	var available_mem = srv_page_size * (buf_pool_get_n_pages() - recv_n_pool_free_frames * 3);
	var batch = ckpt;
	while (!recv_scan_log_recs(available_mem, batch)) {
		recv_apply_hashed_log_recs();
		batch = batch + 1;
		if (batch > log_end) {
			batch = 0;
		}
	}
	return batch;
}

func main() {
	recv_sys_init();
	recv_group_scan_log_recs(0);
}
`

type testBench struct {
	prog *compiler.Program
	sch  *schema.Schema
	meta []debuginfo.VarLoc
}

func buildBench(t *testing.T, src string) *testBench {
	t.Helper()
	f, err := lang.Parse("log0recv.vp", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.GenerateIR(f, prog, schema.Options{})
	return &testBench{prog: prog, sch: sch, meta: schema.Translate(sch, prog.Debug)}
}

// profileRuns profiles `runs` executions with distinct alarm phases and
// returns merged per-run profiles.
func (tb *testBench) profileRuns(t *testing.T, runs int, inputs ...int64) []*sampler.Profile {
	t.Helper()
	var out []*sampler.Profile
	for i := 0; i < runs; i++ {
		res := sampler.ProfileRun(tb.prog, tb.meta,
			vm.Config{Inputs: inputs, AlarmPhase: int64(7 * i), Seed: uint64(i + 1), MaxTicks: 150000},
			sampler.Options{Interval: 37})
		out = append(out, sampler.MergeProfiles(res.Profiles))
		res.Recycle()
	}
	return out
}

func (tb *testBench) analyze(t *testing.T, p analysis.Params, normalInputs, buggyInputs []int64) *analysis.Report {
	t.Helper()
	in := analysis.Input{
		Debug:  tb.prog.Debug,
		Schema: tb.sch,
		Normal: tb.profileRuns(t, 3, normalInputs...),
		Buggy:  tb.profileRuns(t, 3, buggyInputs...),
	}
	rep, err := analysis.Analyze(in, p)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCalibrationPromotesRootCause(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{40}, []int64{90})

	rootRank := rep.Rank("recv_group_scan_log_recs")
	if rootRank == 0 {
		t.Fatal("root cause function not ranked at all")
	}
	if rootRank > 2 {
		t.Errorf("vProf ranks root cause %dth, want top-2\n%s", rootRank, rep.Render(0))
	}
	// The costly callee must rank below the root cause.
	applyRank := rep.Rank("recv_apply_hashed_log_recs")
	if applyRank != 0 && applyRank < rootRank {
		t.Errorf("costly callee (%d) above root cause (%d)\n%s", applyRank, rootRank, rep.Render(0))
	}
	// gprof's raw ranking would NOT put the root cause on top: verify the
	// baseline view for contrast.
	root := rep.Func("recv_group_scan_log_recs")
	apply := rep.Func("recv_apply_hashed_log_recs")
	if apply == nil || root == nil {
		t.Fatal("missing report rows")
	}
	if root.PCCost >= apply.PCCost {
		t.Errorf("test workload flaw: root PC cost %v >= callee %v (gprof would already win)",
			root.PCCost, apply.PCCost)
	}
}

func TestVariableDiscountZeroForAnomalous(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{40}, []int64{90})
	vr := rep.Variables["recv_group_scan_log_recs\x00available_mem"]
	if vr == nil {
		t.Fatal("available_mem not analyzed")
	}
	if !vr.Tested {
		t.Fatalf("available_mem not tested: %+v", vr)
	}
	if vr.Discount != 0 {
		t.Errorf("available_mem discount = %v, want 0 (8 vs 0 everywhere)", vr.Discount)
	}
}

func TestVariableBasedCostInheritsCalleeCost(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{40}, []int64{90})
	root := rep.Func("recv_group_scan_log_recs")
	if root.VarCost <= root.PCCost {
		t.Errorf("VarCost %v <= PCCost %v; unwinding-based cost not working", root.VarCost, root.PCCost)
	}
	if root.RawCost != root.VarCost {
		t.Errorf("RawCost %v != max(VarCost %v)", root.RawCost, root.VarCost)
	}
}

func TestWrongConstraintClassification(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{40}, []int64{90})
	root := rep.Func("recv_group_scan_log_recs")
	if root.Pattern != analysis.PatternWrongConstraint {
		t.Errorf("pattern = %v, want WrongConstraint (top var %+v)", root.Pattern, root.TopVariable)
	}
}

func TestBlockLocalization(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{40}, []int64{90})
	root := rep.Func("recv_group_scan_log_recs")
	if len(root.Blocks) == 0 {
		t.Fatal("no abnormal blocks localized")
	}
	// The abnormal samples occur at PCs inside recv_group_scan_log_recs;
	// the top block must belong to it and carry a plausible line number.
	if root.Blocks[0].Line == 0 {
		t.Errorf("block has no line: %+v", root.Blocks[0])
	}
	fn := tb.prog.Debug.FuncNamed("recv_group_scan_log_recs")
	if fn.Block(root.Blocks[0].Block) == nil {
		t.Errorf("block %s not in root cause function", root.Blocks[0].Block)
	}
}

func TestScalabilityClassification(t *testing.T) {
	// A loop whose induction variable reaches far larger values in the
	// buggy run: the paper's Scalability pattern (MDEV-23399-like).
	src := `
func scan_list(len) {
	var scanned = 0;
	while (scanned < len) {
		work(11);
		scanned++;
	}
	return scanned;
}
func main() {
	scan_list(input(0));
}
`
	tb := buildBench(t, src)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{40}, []int64{4000})
	fr := rep.Func("scan_list")
	if fr == nil {
		t.Fatal("scan_list missing")
	}
	if fr.Pattern != analysis.PatternScalability {
		t.Errorf("pattern = %v (var %+v), want Scalability", fr.Pattern, fr.TopVariable)
	}
	if fr.Rank != 1 {
		t.Errorf("rank = %d, want 1", fr.Rank)
	}
}

func TestMissingConstraintClassification(t *testing.T) {
	// A conditional/loop variable stuck at one value for abnormally long
	// (processing-cost dimension): the paper's Missing Constraint pattern.
	// In the buggy run the status variable stops advancing, so the loop
	// keeps re-processing the same element.
	src := `
func drain(stuck) {
	var remaining = 24;
	while (remaining > 0) {
		work(40);
		if (stuck > 0 && remaining % 2 == 0) {
			work(4000);
		}
		remaining--;
	}
	return 0;
}
func main() {
	drain(input(0));
}
`
	tb := buildBench(t, src)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{0}, []int64{1})
	fr := rep.Func("drain")
	if fr == nil {
		t.Fatal("drain missing")
	}
	if fr.TopVariable == nil || fr.TopVariable.Name != "remaining" {
		t.Fatalf("top variable = %+v, want remaining", fr.TopVariable)
	}
	if fr.TopVariable.Dimension != analysis.DimCost {
		t.Errorf("dimension = %v, want cost", fr.TopVariable.Dimension)
	}
	if fr.Pattern != analysis.PatternMissingConstraint {
		t.Errorf("pattern = %v, want MissingConstraint", fr.Pattern)
	}
}

func TestPointerVariablesUseCostDimensionOnly(t *testing.T) {
	src := `
func lookup(n) {
	var entry = alloc();
	var i = 0;
	while (i < n) {
		if (entry != 0) {
			work(37);
		}
		i++;
	}
	return 0;
}
func main() { lookup(input(0)); }
`
	tb := buildBench(t, src)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{30}, []int64{600})
	vr := rep.Variables["lookup\x00entry"]
	if vr == nil {
		t.Fatal("entry not analyzed")
	}
	if !vr.IsPointer {
		t.Fatal("entry not flagged as pointer")
	}
	if vr.Tested && vr.Dimension != analysis.DimCost {
		t.Errorf("pointer variable used dimension %v, want cost", vr.Dimension)
	}
}

func TestHistDiscounterDemotesStableCost(t *testing.T) {
	// An empty schema monitors no variable: only the hist-discounter
	// remains. A function whose cost
	// rank is the same in both runs gets discounted; one that only
	// appears in the buggy run does not.
	src := `
func steady() { work(4000); return 0; }
func spike(n) { var i = 0; while (i < n) { work(500); i++; } return 0; }
func main() {
	steady();
	spike(input(0));
}
`
	f, err := lang.Parse("t.vp", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	sch := &schema.Schema{}
	meta := schema.Translate(sch, prog.Debug)
	runs := func(inputs ...int64) []*sampler.Profile {
		var out []*sampler.Profile
		for i := 0; i < 5; i++ {
			res := sampler.ProfileRun(prog, meta,
				vm.Config{Inputs: inputs, AlarmPhase: int64(11 * i)},
				sampler.Options{Interval: 37})
			out = append(out, sampler.MergeProfiles(res.Profiles))
			res.Recycle()
		}
		return out
	}
	rep, err := analysis.Analyze(analysis.Input{
		Debug:  prog.Debug,
		Schema: sch,
		Normal: runs(1),
		Buggy:  runs(40),
	}, analysis.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	steady := rep.Func("steady")
	spike := rep.Func("spike")
	if steady == nil || spike == nil {
		t.Fatalf("missing rows:\n%s", rep.Render(0))
	}
	if steady.DiscountSource != "hist" {
		t.Errorf("steady discount source = %s, want hist", steady.DiscountSource)
	}
	if steady.Discount == 0 {
		t.Error("steady not discounted despite identical rank in both runs")
	}
	if spike.Rank >= steady.Rank {
		t.Errorf("spike (%d) should outrank steady (%d)\n%s", spike.Rank, steady.Rank, rep.Render(0))
	}
}

func TestDisableHistDiscounter(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	p := analysis.DefaultParams()
	p.DisableHistDiscounter = true
	rep := tb.analyze(t, p, []int64{40}, []int64{90})
	for _, fr := range rep.Funcs {
		if fr.DiscountSource == "hist" {
			t.Fatalf("hist discount applied despite being disabled: %+v", fr)
		}
	}
}

func TestDisableVarCost(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	p := analysis.DefaultParams()
	p.DisableVarCost = true
	rep := tb.analyze(t, p, []int64{40}, []int64{90})
	for _, fr := range rep.Funcs {
		if fr.VarCost != 0 {
			t.Fatalf("VarCost nonzero with DisableVarCost: %+v", fr)
		}
	}
}

func TestDefaultDiscountAppliedToUnchangedVariables(t *testing.T) {
	// batch sweeps the same 0..log_end range in both runs, so its
	// distribution shape matches -> a high discount (DefaultDiscount from
	// the AD test accepting, or 1-Hellinger of two near-identical
	// distributions).
	tb := buildBench(t, recoverySrc)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{40}, []int64{90})
	vr := rep.Variables["recv_group_scan_log_recs\x00batch"]
	if vr == nil {
		t.Fatal("batch not analyzed")
	}
	if !vr.Tested {
		t.Fatal("batch not tested")
	}
	if vr.Discount < rep.Params.DefaultDiscount {
		t.Errorf("batch discount %v < DefaultDiscount (same distribution shape)", vr.Discount)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	_, err := analysis.Analyze(analysis.Input{
		Debug:  tb.prog.Debug,
		Schema: tb.sch,
	}, analysis.DefaultParams())
	if err == nil {
		t.Fatal("expected error without profiles")
	}
}

func TestRenderOutput(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{40}, []int64{90})
	text := rep.Render(5)
	if !strings.Contains(text, "recv_group_scan_log_recs") {
		t.Errorf("render lacks root cause:\n%s", text)
	}
	if !strings.Contains(text, "available_mem") {
		t.Errorf("render lacks variable annotation:\n%s", text)
	}
	lines := strings.Count(text, "\n")
	if lines > 6 {
		t.Errorf("render(5) produced %d lines", lines)
	}
}

func TestGprofViewForContrast(t *testing.T) {
	// Sanity: the raw PC cost ranking (gprof's view) puts a costly callee
	// above the root cause in the buggy run — the premise of the paper.
	tb := buildBench(t, recoverySrc)
	buggy := tb.profileRuns(t, 1, 90)[0]
	cost := map[string]float64{}
	for pc, n := range buggy.Hist {
		if n == 0 {
			continue
		}
		if fn := tb.prog.Debug.FuncAt(pc); fn != nil && !fn.Library {
			cost[fn.Name] += float64(n)
		}
	}
	ranks := stats.Ranks(cost)
	if ranks["recv_apply_hashed_log_recs"] != 1 {
		t.Errorf("gprof view: apply rank = %d, want 1 (%v)", ranks["recv_apply_hashed_log_recs"], ranks)
	}
	if ranks["recv_group_scan_log_recs"] <= ranks["recv_apply_hashed_log_recs"] {
		t.Error("gprof view already favors root cause; workload loses its point")
	}
}

func TestParamsEdgeCases(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	base := func() analysis.Params { return analysis.DefaultParams() }

	// PValue 1: every test "rejects", so discounts come from Hellinger.
	p := base()
	p.PValue = 1.0
	rep := tb.analyze(t, p, []int64{40}, []int64{90})
	if rep.Rank("recv_group_scan_log_recs") > 5 {
		t.Errorf("pvalue=1: root rank %d", rep.Rank("recv_group_scan_log_recs"))
	}

	// PValue 0: nothing rejects, every tested variable gets
	// DefaultDiscount; the root cause survives on raw var-cost.
	p = base()
	p.PValue = 0
	rep = tb.analyze(t, p, []int64{40}, []int64{90})
	for _, vr := range rep.Variables {
		if vr.Tested && vr.Discount != p.DefaultDiscount && vr.Discount != 0 {
			// One-sided variables bypass the AD test and may be 0.
			t.Errorf("pvalue=0: %s.%s discount %v", vr.Func, vr.Name, vr.Discount)
		}
	}

	// DefaultDiscount 1.0: non-anomalous functions are erased entirely.
	p = base()
	p.DefaultDiscount = 1.0
	rep = tb.analyze(t, p, []int64{40}, []int64{90})
	if r := rep.Rank("recv_group_scan_log_recs"); r > 3 {
		t.Errorf("dd=1.0: root rank %d\n%s", r, rep.Render(6))
	}
}

func TestReportLookupsMissing(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{40}, []int64{90})
	if rep.Rank("no_such_function") != 0 {
		t.Error("Rank of unknown function should be 0")
	}
	if rep.Func("no_such_function") != nil {
		t.Error("Func of unknown function should be nil")
	}
}

func TestRanksAreDense(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	rep := tb.analyze(t, analysis.DefaultParams(), []int64{40}, []int64{90})
	for i, fr := range rep.Funcs {
		if fr.Rank != i+1 {
			t.Fatalf("rank %d at position %d", fr.Rank, i)
		}
		if i > 0 && rep.Funcs[i-1].Calibrated < fr.Calibrated {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
}

func TestStuckCriterion(t *testing.T) {
	p := analysis.DefaultParams()
	cases := []struct {
		name string
		vr   analysis.VariableReport
		want bool
	}{
		{"classic stuck", analysis.VariableReport{MaxRunNormal: 2, MaxRunBuggy: 50, RunsBuggy: 10}, true},
		{"constant (one run)", analysis.VariableReport{MaxRunNormal: 100, MaxRunBuggy: 4000, RunsBuggy: 1}, false},
		{"init transient (two runs)", analysis.VariableReport{MaxRunNormal: 100, MaxRunBuggy: 4000, RunsBuggy: 2}, false},
		{"no normal baseline", analysis.VariableReport{MaxRunNormal: 0, MaxRunBuggy: 50, RunsBuggy: 10}, false},
		{"uniformly slower", analysis.VariableReport{MaxRunNormal: 10, MaxRunBuggy: 30, RunsBuggy: 10}, false},
		{"boundary 5x", analysis.VariableReport{MaxRunNormal: 10, MaxRunBuggy: 50, RunsBuggy: 10}, false},
		{"just past 5x", analysis.VariableReport{MaxRunNormal: 10, MaxRunBuggy: 51, RunsBuggy: 10}, true},
	}
	for _, c := range cases {
		if got := c.vr.Stuck(p); got != c.want {
			t.Errorf("%s: Stuck = %v, want %v", c.name, got, c.want)
		}
	}
}
