package harness_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
)

// reportGolden holds every issue's full rendered report under each
// parameter set, localization included.
const reportGolden = "reports.txt"

// reportParams are the parameter sets the report golden covers: the
// paper's defaults and the three ablations that change which kernels run.
var reportParams = []struct {
	name string
	set  func(*analysis.Params)
}{
	{"default", func(*analysis.Params) {}},
	{"no-hist", func(p *analysis.Params) { p.DisableHistDiscounter = true }},
	{"value-only", func(p *analysis.Params) { p.DimensionsValueOnly = true }},
	{"no-varcost", func(p *analysis.Params) { p.DisableVarCost = true }},
}

// reportIssues is every reproduced (b1-b15) and unresolved (u1-u3) issue.
func reportIssues() []*bugs.Workload {
	return append(bugs.All(), bugs.UnresolvedIssues()...)
}

// issueInput profiles bugs.Runs normal and buggy executions of w.
func issueInput(t *testing.T, w *bugs.Workload) analysis.Input {
	t.Helper()
	b, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	normal, buggy := b.Profiles(b.NormalMeta, b.Meta, 0)
	return analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema, Normal: normal, Buggy: buggy}
}

// sectionHeader titles one (issue, parameter set) report in the golden.
func sectionHeader(id, params string) string {
	return fmt.Sprintf("== %s %s ==\n", id, params)
}

// issueReports renders w's analysis under every parameter set, one
// golden section each.
func issueReports(t *testing.T, w *bugs.Workload, in analysis.Input) string {
	t.Helper()
	var sb strings.Builder
	for _, ps := range reportParams {
		p := analysis.DefaultParams()
		ps.set(&p)
		rep, err := analysis.Analyze(in, p)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(sectionHeader(w.ID, ps.name))
		sb.WriteString(rep.Render(0))
	}
	return sb.String()
}

// goldenIssueSections returns the golden's sections for one issue, in
// reportParams order.
func goldenIssueSections(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", reportGolden))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	var header string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, "== ") {
			header = line
		}
		sections[header] += line
	}
	var sb strings.Builder
	for _, ps := range reportParams {
		sb.WriteString(sections[sectionHeader(id, ps.name)])
	}
	return sb.String()
}

// TestReportGolden is the full-report golden of the offline diagnosis: for
// every issue under every parameter set, Analyze's rendered report — ranks,
// calibrated costs, discounts, top variables, localized blocks and
// patterns — must match testdata/golden/reports.txt byte for byte.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles all 18 workloads; slow")
	}
	for _, w := range reportIssues() {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			got := issueReports(t, w, issueInput(t, w))
			if want := goldenIssueSections(t, w.ID); got != want {
				t.Errorf("%s reports differ from testdata/golden/%s:\n--- want\n%s--- got\n%s", w.ID, reportGolden, want, got)
			}
		})
	}
}

// TestSketchRankIdentity pins the incremental path to the offline one: for
// every issue under every parameter set, analyzing folded per-run sketches
// without a buggy trail renders exactly Analyze's report with the block
// column cleared (localization needs the trail; everything else — ranks,
// costs, discounts, variables, patterns — must be identical).
func TestSketchRankIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles all 18 workloads; slow")
	}
	fold := func(ps []*sampler.Profile) []*sketch.Profile {
		out := make([]*sketch.Profile, len(ps))
		for i, p := range ps {
			out[i] = sketch.FromProfile(p)
		}
		return out
	}
	for _, w := range reportIssues() {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			in := issueInput(t, w)
			normals := fold(in.Normal)
			si := analysis.SketchInput{
				Debug:  in.Debug,
				Schema: in.Schema,
				Normal: normals[0],
				Corpus: analysis.CorpusOfSketches(normals, in.Debug),
				Buggy:  fold(in.Buggy),
			}
			for _, ps := range reportParams {
				p := analysis.DefaultParams()
				ps.set(&p)
				full, err := analysis.Analyze(in, p)
				if err != nil {
					t.Fatal(err)
				}
				for i := range full.Funcs {
					full.Funcs[i].Blocks = nil
				}
				sk, err := analysis.AnalyzeSketches(si, p)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := sk.Render(0), full.Render(0); got != want {
					t.Errorf("%s/%s: sketch report differs from the full report without blocks:\n--- full\n%s--- sketch\n%s", w.ID, ps.name, want, got)
				}
			}
		})
	}
}
