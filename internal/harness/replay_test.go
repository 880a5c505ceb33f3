package harness_test

import (
	"testing"

	"vprof/internal/sim"
)

// The continuous-mode replay is internal/sim's replay-single schedule: all
// 18 workloads pushed concurrently through one service node, each served
// diagnosis equal byte for byte to the offline Table 3 pipeline, a second
// diagnosis of each unchanged workload served from the memo, and the replay
// table equal to testdata/golden/replay.txt next to the schedule.
const replaySchedule = "../sim/testdata/replay-single.sched"

func TestContinuousReplayAllWorkloads(t *testing.T) { sim.Run(t, replaySchedule) }

// TestReplayContinuousEngineEquivalence is the replay's golden equivalence
// gate: the schedule's last step holds the register engine's replay table
// to the one the tree-walking reference interpreter produced.
func TestReplayContinuousEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("continuous replay is slow")
	}
	sim.Run(t, replaySchedule)
}
