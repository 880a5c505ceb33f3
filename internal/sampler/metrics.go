package sampler

import (
	"sync/atomic"

	"vprof/internal/obs"
)

// selfMetrics is the profiler's self-profiling instrumentation (Coz-style:
// a profiler must measure itself to be trusted). All fields are nil-safe obs
// metrics. A Profiler tallies its run in its own fields and Finish adds the
// tallies here once, so the measurement costs the profiled run no atomic
// operation per alarm.
type selfMetrics struct {
	alarms       *obs.Counter   // profiling alarms fired
	valueSamples *obs.Counter   // value samples recorded
	unwindDepth  *obs.Histogram // frames virtually unwound per alarm
}

var samplerMetrics = func() *atomic.Pointer[selfMetrics] {
	p := new(atomic.Pointer[selfMetrics])
	p.Store(&selfMetrics{})
	return p
}()

// Instrument registers the sampler's self-profiling metric families on reg
// and routes subsequent profiling runs through them. A nil registry restores
// the uninstrumented default.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		samplerMetrics.Store(&selfMetrics{})
		return
	}
	samplerMetrics.Store(&selfMetrics{
		alarms: reg.Counter("vprof_sampler_alarms_total",
			"Profiling alarms fired across all profiled runs."),
		valueSamples: reg.Counter("vprof_sampler_value_samples_total",
			"Variable value samples recorded across all profiled runs."),
		unwindDepth: reg.Histogram("vprof_sampler_unwind_depth",
			"Frames virtually unwound per profiling alarm.",
			obs.LinearBuckets(0, 1, 9)),
	})
}
