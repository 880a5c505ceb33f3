package harness

import (
	"testing"

	"vprof/internal/bugs"
)

// replayRows holds the one continuous replay of all 18 workloads that both
// tests below check.
var replayRows []ReplayRow

func replayAll(t *testing.T) []ReplayRow {
	t.Helper()
	if replayRows == nil {
		workloads := append(bugs.All(), bugs.UnresolvedIssues()...)
		rows, err := ReplayContinuous(t.TempDir(), workloads)
		if err != nil {
			t.Fatal(err)
		}
		replayRows = rows
	}
	return replayRows
}

// TestContinuousReplayAllWorkloads is the tentpole's acceptance test: all 18
// bug workloads (15 resolved + 3 unresolved) replayed through the HTTP
// service with concurrent pushes must produce byte-for-byte the same
// diagnosis as the offline Table 3 path, and a second diagnosis of each
// unchanged workload must be served from the memo cache.
func TestContinuousReplayAllWorkloads(t *testing.T) {
	rows := replayAll(t)
	if len(rows) != 18 {
		t.Fatalf("replayed %d workloads, want 18", len(rows))
	}
	for _, r := range rows {
		if r.Pushes != 2*Runs || r.Dups != 0 {
			t.Errorf("%s: pushes=%d dups=%d, want %d/0", r.ID, r.Pushes, r.Dups, 2*Runs)
		}
		if !r.RenderMatch {
			t.Errorf("%s: service report differs from offline report", r.ID)
		}
		if r.ServiceRank != r.OfflineRank {
			t.Errorf("%s: service rank %d != offline rank %d", r.ID, r.ServiceRank, r.OfflineRank)
		}
		if !r.CachedSecond {
			t.Errorf("%s: second diagnosis was not served from the memo cache", r.ID)
		}
	}
	t.Logf("\n%s", RenderReplay(rows))
}

// TestReplayContinuousEngineEquivalence is the replay's golden equivalence
// gate: the register engine's rendering of the continuous replay must equal
// byte for byte the one the tree-walking reference interpreter produced
// (testdata/golden/replay.txt), match and cache columns included.
func TestReplayContinuousEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("continuous replay is slow")
	}
	CheckGolden(t, "replay.txt", RenderReplay(replayAll(t)))
}
