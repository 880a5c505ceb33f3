package analysis_test

import (
	"reflect"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/sampler"
)

// TestValuesReadFromRunZeroOnly pins the contract the one-shot profiling
// loop relies on when runs 1..n record no values: the report, and its
// render, over profiles that all carry value samples equal those over the
// same profiles with the samples and layouts stripped from every run but
// run 0 of each side. b8 runs three processes, whose profiles are merged.
func TestValuesReadFromRunZeroOnly(t *testing.T) {
	for _, id := range []string{"b1", "b8"} {
		t.Run(id, func(t *testing.T) {
			b := bugs.ByID(id).MustBuild()
			var normal, buggy, normalStripped, buggyStripped []*sampler.Profile
			for i := 0; i < bugs.Runs; i++ {
				np, _ := b.ProfileNormal(i)
				bp, _ := b.ProfileBuggy(i)
				if len(np.Samples) == 0 || len(bp.Samples) == 0 {
					t.Fatalf("run %d recorded no value samples", i)
				}
				normal, buggy = append(normal, np), append(buggy, bp)
				if i > 0 {
					np, bp = withoutValues(np), withoutValues(bp)
				}
				normalStripped, buggyStripped = append(normalStripped, np), append(buggyStripped, bp)
			}
			analyze := func(normal, buggy []*sampler.Profile) *analysis.Report {
				rep, err := analysis.Analyze(analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema, Normal: normal, Buggy: buggy}, analysis.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want, got := analyze(normal, buggy), analyze(normalStripped, buggyStripped)
			if got.Render(0) != want.Render(0) {
				t.Fatalf("render without values in runs 1..%d:\n%s\nwith them:\n%s", bugs.Runs-1, got.Render(0), want.Render(0))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("report differs without values in runs 1..n")
			}
		})
	}
}

// withoutValues copies p as a run monitoring no variable records it.
func withoutValues(p *sampler.Profile) *sampler.Profile {
	c := *p
	c.Samples, c.Layout = nil, nil
	return &c
}
