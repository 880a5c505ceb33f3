package analysis

import "vprof/internal/sampler"

// NormalRange exports normalRange to the external tests.
var NormalRange = normalRange

// AbnormalPCsOf indexes trail once and returns abnormalPCs over the samples
// of one variable of it.
func AbnormalPCsOf(trail *sampler.Profile) func(key string, dim Dimension, lo, hi float64, ok bool) []int {
	t := indexTrail(trail)
	return func(key string, dim Dimension, lo, hi float64, ok bool) []int {
		return abnormalPCs(dim, lo, hi, ok, t.samples, t.of(key))
	}
}
