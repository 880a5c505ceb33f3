package bugs_test

import (
	"bytes"
	"fmt"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/baselines"
	"vprof/internal/bugs"
	"vprof/internal/debuginfo"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
)

func TestRegistryComplete(t *testing.T) {
	all := bugs.All()
	if len(all) != 15 {
		t.Fatalf("have %d resolved workloads, want 15", len(all))
	}
	for i, w := range all {
		wantID := []string{"b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9", "b10", "b11", "b12", "b13", "b14", "b15"}[i]
		if w.ID != wantID {
			t.Errorf("workload %d id = %s, want %s", i, w.ID, wantID)
		}
	}
	un := bugs.UnresolvedIssues()
	if len(un) != 3 {
		t.Fatalf("have %d unresolved workloads, want 3", len(un))
	}
	if bugs.ByID("b1") == nil || bugs.ByID("u1") == nil || bugs.ByID("zzz") != nil {
		t.Error("ByID lookups broken")
	}
}

func TestAllWorkloadsCompile(t *testing.T) {
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		if _, err := w.Build(); err != nil {
			t.Errorf("%s: %v", w.ID, err)
		}
	}
}

func TestAllWorkloadsHaveGroundTruth(t *testing.T) {
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		b, err := w.Build()
		if err != nil {
			t.Fatalf("%s: %v", w.ID, err)
		}
		if b.Prog.FuncNamed(w.RootFunc) == nil {
			t.Errorf("%s: root function %q not in program", w.ID, w.RootFunc)
		}
		if _, ok := b.FixBlock(); !ok {
			t.Errorf("%s: fix marker %q not resolvable to a block", w.ID, w.FixMarker)
		}
	}
}

func TestWorkloadsBuggySlower(t *testing.T) {
	// Sanity: the buggy execution must consume significantly more CPU
	// than the normal one (that is what makes it a performance issue).
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			b, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			_, nRes := b.ProfileNormal(0)
			_, bRes := b.ProfileBuggy(0)
			nT, bT := nRes.TotalTicks(), bRes.TotalTicks()
			// b13's real-world regression is ~1.5x ("50% slower");
			// every other workload is far beyond this.
			if bT*10 < nT*14 {
				t.Errorf("buggy %d ticks vs normal %d: not a performance regression", bT, nT)
			}
		})
	}
}

// TestVProfTop5 is the headline reproduction check: vProf ranks the root
// cause within the top five for every resolved issue (Table 3).
func TestVProfTop5(t *testing.T) {
	for _, w := range bugs.All() {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			b, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := b.Analyze(analysis.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			rank := rep.Rank(w.RootFunc)
			if rank == 0 || rank > 5 {
				t.Errorf("%s (%s): vProf rank = %d, want 1..5\n%s",
					w.ID, w.Ticket, rank, rep.Render(8))
			}
		})
	}
}

// TestVProfClassification checks the bug-pattern column of Table 3: the
// pattern must match ground truth for the 13 classified cases, and must be
// NC for b13/b15.
func TestVProfClassification(t *testing.T) {
	for _, w := range bugs.All() {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			b, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := b.Analyze(analysis.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			fr := rep.Func(w.RootFunc)
			if fr == nil {
				t.Fatalf("root cause not in report")
			}
			if w.PaperClassified {
				if fr.Pattern != w.Pattern {
					t.Errorf("%s: pattern = %v, want %v (top var: %+v)",
						w.ID, fr.Pattern, w.Pattern, fr.TopVariable)
				}
			} else if fr.Pattern != analysis.PatternNC {
				t.Errorf("%s: pattern = %v, want NC (paper could not classify)", w.ID, fr.Pattern)
			}
		})
	}
}

// TestBaselinesWorseShape checks Table 3's shape: for each issue, at most a
// couple of baseline tools match vProf's rank, and the known failure modes
// (COZ crash/child) reproduce.
func TestBaselineFailureModes(t *testing.T) {
	for _, id := range []string{"b7", "b8", "b10", "b14", "b15"} {
		w := bugs.ByID(id)
		b, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		res := baselines.Coz(b.Target())
		switch id {
		case "b7":
			if res.Failure != baselines.FailCrash {
				t.Errorf("%s: COZ failure = %q, want crash", id, res.Failure)
			}
		default:
			if res.Failure != baselines.FailChild {
				t.Errorf("%s: COZ failure = %q, want child", id, res.Failure)
			}
		}
	}
}

func TestGprofMisledOnB1(t *testing.T) {
	b, err := bugs.ByID("b1").Build()
	if err != nil {
		t.Fatal(err)
	}
	res := baselines.Gprof(b.Target())
	rootRank := res.Rank("recv_group_scan_log_recs")
	applyRank := res.Rank("recv_apply_hashed_log_recs")
	if applyRank != 1 {
		t.Errorf("gprof should rank recv_apply_hashed_log_recs 1st, got %d", applyRank)
	}
	if rootRank != 0 && rootRank <= applyRank {
		t.Errorf("gprof rank of root (%d) should be worse than costly callee (%d)", rootRank, applyRank)
	}
}

func TestB14GprofMissesChild(t *testing.T) {
	b, err := bugs.ByID("b14").Build()
	if err != nil {
		t.Fatal(err)
	}
	if r := baselines.Gprof(b.Target()).Rank("find_param_referent"); r != 0 {
		t.Errorf("gprof ranked child-process root cause %d, want NR", r)
	}
	if r := baselines.Perf(b.Target()).Rank("find_param_referent"); r == 0 {
		t.Error("perf (system-wide) should rank the child-process root cause")
	}
}

// TestProfilesMatchSingleRuns pins the shared 5+5 profiling loop: at any
// pool size, Profiles returns run i of each side at index i, byte for byte
// the profile of that run taken on its own. b1 runs one process; b8 runs
// three, whose profiles are merged.
func TestProfilesMatchSingleRuns(t *testing.T) {
	marshal := func(t *testing.T, p *sampler.Profile) []byte {
		t.Helper()
		data, err := profilefmt.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(data)
	}
	for _, id := range []string{"b1", "b8"} {
		b := bugs.ByID(id).MustBuild()
		for _, tc := range []struct {
			name                  string
			normalMeta, buggyMeta []debuginfo.VarLoc
			one                   func(run int) (normal, buggy *sampler.Profile)
		}{
			{"schema", b.NormalMeta, b.Meta, func(run int) (*sampler.Profile, *sampler.Profile) {
				np, _ := b.ProfileNormal(run)
				bp, _ := b.ProfileBuggy(run)
				return np, bp
			}},
			// Table 3's hist-disc column monitors no variable.
			{"no-vars", nil, nil, func(run int) (*sampler.Profile, *sampler.Profile) {
				np, _ := bugs.ProfileMerged(b.NormalProg, nil, b.W.NormalConfig(run))
				bp, _ := bugs.ProfileMerged(b.Prog, nil, b.W.BuggyConfig(run))
				return np, bp
			}},
		} {
			var want [2][][]byte
			for i := 0; i < bugs.Runs; i++ {
				np, bp := tc.one(i)
				want[0] = append(want[0], marshal(t, np))
				want[1] = append(want[1], marshal(t, bp))
			}
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", id, tc.name, workers), func(t *testing.T) {
					normal, buggy := b.Profiles(tc.normalMeta, tc.buggyMeta, workers)
					for side, got := range [2][]*sampler.Profile{normal, buggy} {
						if len(got) != bugs.Runs {
							t.Fatalf("side %d: %d profiles, want %d", side, len(got), bugs.Runs)
						}
						for i, p := range got {
							if !bytes.Equal(marshal(t, p), want[side][i]) {
								t.Errorf("side %d run %d differs from the run profiled on its own", side, i)
							}
						}
					}
				})
			}
		}
	}
}
