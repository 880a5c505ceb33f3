package sampler_test

import (
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/obs"
	"vprof/internal/sampler"
)

// TestSelfMetricsPerRun: one instrumented run of b8-buggy run 0, which
// runs three processes, adds the processes' summed alarms, the merged
// profile's value samples and one unwind-depth observation per alarm to
// the self-metrics.
func TestSelfMetricsPerRun(t *testing.T) {
	b := build(t, "b8")
	reg := obs.NewRegistry()
	sampler.Instrument(reg)
	t.Cleanup(func() { sampler.Instrument(nil) })

	res := sampler.ProfileRun(b.Prog, b.Meta, b.W.BuggyConfig(0), sampler.Options{Interval: bugs.DefaultInterval})
	if len(res.Profiles) != 3 {
		t.Fatalf("b8-buggy run 0 ran %d processes, want 3", len(res.Profiles))
	}
	var alarms int64
	for _, p := range res.Profiles {
		alarms += p.NumAlarms
	}
	samples := len(sampler.MergeProfiles(res.Profiles).Samples)
	res.Recycle()
	if alarms == 0 || samples == 0 {
		t.Fatalf("run recorded %d alarms and %d value samples, want both > 0", alarms, samples)
	}

	if got := reg.Counter("vprof_sampler_alarms_total", "").Value(); got != float64(alarms) {
		t.Errorf("vprof_sampler_alarms_total = %v, want the processes' %d alarms", got, alarms)
	}
	if got := reg.Counter("vprof_sampler_value_samples_total", "").Value(); got != float64(samples) {
		t.Errorf("vprof_sampler_value_samples_total = %v, want the merged profile's %d samples", got, samples)
	}
	if got := reg.Histogram("vprof_sampler_unwind_depth", "", nil).Count(); got != uint64(alarms) {
		t.Errorf("vprof_sampler_unwind_depth counts %d observations, want one per alarm (%d)", got, alarms)
	}
}
