package harness_test

import (
	"strings"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/harness"
)

func TestRankString(t *testing.T) {
	cases := map[int]string{
		0: "NR", -3: "NR",
		1: "1st", 2: "2nd", 3: "3rd", 4: "4th", 10: "10th",
		11: "11th", 12: "12th", 13: "13th", 21: "21st", 22: "22nd",
		23: "23rd", 101: "101st", 111: "111th", 454: "454th", 1024: "1024th",
	}
	for r, want := range cases {
		if got := harness.RankString(r); got != want {
			t.Errorf("RankString(%d) = %q, want %q", r, got, want)
		}
	}
}

func TestTable1Render(t *testing.T) {
	text := harness.Table1()
	for _, want := range []string{"MDEV-21826", "Redis-8668", "Postgres-17330", "WrongConstraint"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	if strings.Count(text, "\n") < 16 {
		t.Error("Table 1 too short")
	}
}

func TestTable2Render(t *testing.T) {
	text := harness.Table2()
	for _, tool := range []string{"gprof", "perf-PT", "COZ", "stat-debug", "vProf"} {
		if !strings.Contains(text, tool) {
			t.Errorf("Table 2 missing %q", tool)
		}
	}
}

// TestDiagnoseWorkloadRow exercises the full Table 3 protocol on one
// workload (the full table is covered by BenchmarkTable3Diagnosis and the
// bugs package tests).
func TestDiagnoseWorkloadRow(t *testing.T) {
	w := bugs.ByID("b4")
	row, err := harness.DiagnoseWorkload(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row.VProfRank < 1 || row.VProfRank > 5 {
		t.Errorf("vProf rank = %d", row.VProfRank)
	}
	if !row.ClassMatch {
		t.Errorf("classification mismatch: got %v", row.Pattern)
	}
	if row.Gprof != 0 && row.Gprof <= row.VProfRank {
		t.Errorf("gprof (%d) should rank the root cause worse than vProf (%d)", row.Gprof, row.VProfRank)
	}
	if !row.BBOK {
		t.Error("bb-dist not computed")
	}
	text := harness.RenderTable3([]harness.Table3Row{row})
	if !strings.Contains(text, "b4") || !strings.Contains(text, "[3rd]") {
		t.Errorf("render missing row data:\n%s", text)
	}
}

func TestHistDiscOnly(t *testing.T) {
	b, err := bugs.ByID("b2").Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := harness.HistDiscOnly(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With zero variables monitored there must be no variable discounts.
	for _, fr := range rep.Funcs {
		if fr.DiscountSource == "variable" {
			t.Fatalf("variable discount with empty schema: %+v", fr)
		}
	}
	if len(rep.Funcs) == 0 {
		t.Fatal("empty ranking")
	}
}

func TestTable4CaseStudies(t *testing.T) {
	cases, err := harness.Table4(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("%d cases, want 3", len(cases))
	}
	for _, c := range cases {
		if !c.RootFound {
			t.Errorf("%s: root cause not surfaced in top-2 of any component", c.ID)
		}
	}
	// u1 reproduces the paper's two-component investigation.
	u1 := cases[0]
	if len(u1.Findings) != 2 {
		t.Fatalf("u1 has %d findings", len(u1.Findings))
	}
	text := harness.RenderTable4(cases)
	if !strings.Contains(text, "lookupKey") {
		t.Errorf("u1 narrative missing lookupKey false positive:\n%s", text)
	}
	if !strings.Contains(text, "excluded") {
		t.Errorf("u1 narrative missing new-function exclusion:\n%s", text)
	}
}

func TestTable5Overhead(t *testing.T) {
	rows, err := harness.Table5(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Variables <= 0 {
			t.Errorf("%s: no variables monitored", r.ID)
		}
		if r.SamplesKB <= 0 || r.RunTicks <= 0 {
			t.Errorf("%s: empty metrics %+v", r.ID, r)
		}
	}
	if !strings.Contains(harness.RenderTable5(rows), "PCToVar(KB)") {
		t.Error("render header missing")
	}
}

func TestFigure6Series(t *testing.T) {
	series, err := harness.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	b1 := series[0]
	if b1.Variable != "available_mem" {
		t.Fatalf("series 0 = %s", b1.Variable)
	}
	// Figure 6a's separation: nonzero normal values, all-zero buggy values.
	for _, v := range b1.NormalValues {
		if v == 0 {
			t.Fatal("b1 normal available_mem contains zero")
		}
	}
	for _, v := range b1.BuggyValues {
		if v != 0 {
			t.Fatal("b1 buggy available_mem nonzero")
		}
	}
	// Figure 6b: the buggy numclients series changes value far less often.
	b12 := series[1]
	if changes(b12.BuggyValues)*5 > changes(b12.NormalValues) {
		t.Errorf("numclients: buggy changes %d, normal %d — stuck signature missing",
			changes(b12.BuggyValues), changes(b12.NormalValues))
	}
	if !strings.Contains(harness.RenderFigure6(series), "numclients") {
		t.Error("render missing series")
	}
}

func changes(vals []int64) int {
	n := 0
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			n++
		}
	}
	return n
}

func TestFigure8SweepReanalyzesOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	res, err := harness.Figure8(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DefaultDiscount) != 10 || len(res.ValidDiscount) != 10 {
		t.Fatalf("sweep sizes %d/%d", len(res.DefaultDiscount), len(res.ValidDiscount))
	}
	for _, p := range res.DefaultDiscount {
		if p.Diagnosed < 0 || p.Diagnosed > 15 {
			t.Errorf("diagnosed out of range: %+v", p)
		}
		if p.MeanRank <= 0 {
			t.Errorf("mean rank missing: %+v", p)
		}
	}
	if !strings.Contains(harness.RenderFigure8(res), "DefaultDiscount") {
		t.Error("render missing sweep")
	}
}

func TestDeterministicTables(t *testing.T) {
	// The Table 3 row for one workload must be identical across calls.
	w := bugs.ByID("b1")
	r1, err := harness.DiagnoseWorkload(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := harness.DiagnoseWorkload(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.VProfRank != r2.VProfRank || r1.Gprof != r2.Gprof || r1.StatDebug != r2.StatDebug ||
		r1.Pattern != r2.Pattern || r1.BBMean != r2.BBMean {
		t.Errorf("nondeterministic rows:\n%+v\n%+v", r1, r2)
	}
}

func TestFigure7Overhead(t *testing.T) {
	rows, err := harness.Figure7(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BaseMs <= 0 {
			t.Errorf("%s: no baseline time", r.ID)
		}
		if r.VProfRatio <= 0 || r.SampleCount == 0 {
			t.Errorf("%s: profiling metrics missing: %+v", r.ID, r)
		}
		// vProf does strictly more work per alarm than gprof-style
		// sampling; allow generous wall-clock jitter headroom.
		if r.VProfRatio > 200 {
			t.Errorf("%s: implausible overhead %v", r.ID, r.VProfRatio)
		}
	}
	if !strings.Contains(harness.RenderFigure7(rows), "w/ vProf") {
		t.Error("render header missing")
	}
}

func TestTable3FullRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 in -short mode")
	}
	text, rows, err := harness.Table3(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("%d rows", len(rows))
	}
	top5 := 0
	for _, r := range rows {
		if r.VProfRank >= 1 && r.VProfRank <= 5 {
			top5++
		}
	}
	if top5 != 15 {
		t.Errorf("vProf top-5 = %d/15\n%s", top5, text)
	}
	if !strings.Contains(text, "root cause in top-5") {
		t.Error("summary line missing")
	}
}

func TestFalsePositiveRatio(t *testing.T) {
	// b7's narrative: dummy_connection ranks above the root cause but is
	// its callee, so it is not a false positive.
	b, err := bugs.ByID("b7").Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Analyze(analysis.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fp := harness.FalsePositiveRatio(rep, b)
	if fp < 0 || fp > 1 {
		t.Fatalf("ratio out of range: %v", fp)
	}
	// The paper's average is 10.6%; each individual issue admits at most
	// a couple of unrelated functions above the root cause.
	if fp > 0.4 {
		t.Errorf("b7 false positive ratio %v too high\n%s", fp, rep.Render(5))
	}
}
