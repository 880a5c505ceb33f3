package sim_test

import (
	"path/filepath"
	"strings"
	"testing"

	"vprof/internal/sim"
)

// TestSchedules runs every schedule under testdata, one subtest each.
func TestSchedules(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.sched"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no schedules: %v", err)
	}
	for _, f := range files {
		t.Run(strings.TrimSuffix(filepath.Base(f), ".sched"), func(t *testing.T) { sim.Run(t, f) })
	}
}
