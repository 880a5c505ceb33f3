package stats

import (
	"math"

	"vprof/internal/sketch"
)

// DefaultHellingerBins is the bin count used when two samples have too many
// distinct values to compare value-by-value.
const DefaultHellingerBins = 32

// Hellinger returns the Hellinger distance between the empirical
// distributions two histograms count, in [0, 1]. 0 means identical
// distributions, 1 means disjoint support. It is safe for concurrent use.
//
// The samples are discretized onto a common set of bins: exact values when
// the union of their distinct values has at most DefaultHellingerBins
// members, equal-width bins over the combined range otherwise. An empty
// sample is treated as disjoint from a non-empty one (distance 1); two empty
// samples have distance 0. Every count is an integer, exact in float64, and
// the Bhattacharyya sum runs over the values or bins in ascending order.
func Hellinger(a, b sketch.Hist) float64 {
	na, nb := a.Total(), b.Total()
	switch {
	case na == 0 && nb == 0:
		return 0
	case na == 0 || nb == 0:
		return 1
	}
	fa, fb := float64(na), float64(nb)

	// H^2 = 1 - sum sqrt(p_i * q_i)  (Bhattacharyya coefficient). On the
	// exact path only the values both samples hold add to the sum.
	const bins = DefaultHellingerBins
	var bc float64
	exact := len(a) <= bins && len(b) <= bins // else the union exceeds bins
	if exact {
		distinct := 0
		for i, j := 0, 0; i < len(a) || j < len(b); distinct++ {
			switch {
			case j == len(b) || i < len(a) && a[i].Key < b[j].Key:
				i++
			case i == len(a) || b[j].Key < a[i].Key:
				j++
			default:
				bc += math.Sqrt(float64(a[i].Count) / fa * (float64(b[j].Count) / fb))
				i++
				j++
			}
		}
		exact = distinct <= bins
	}
	if !exact {
		bc = binnedBC(a, b, fa, fb)
	}
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// binnedBC is the Bhattacharyya coefficient of a and b (totals fa and fb)
// over DefaultHellingerBins equal-width bins spanning both.
func binnedBC(a, b sketch.Hist, fa, fb float64) float64 {
	lo, hi := a[0].Key, a[len(a)-1].Key
	if b[0].Key < lo {
		lo = b[0].Key
	}
	if b[len(b)-1].Key > hi {
		hi = b[len(b)-1].Key
	}
	width := (hi - lo) / DefaultHellingerBins
	var pa, pb [DefaultHellingerBins]float64
	binnedPMF(a, fa, lo, width, &pa)
	binnedPMF(b, fb, lo, width, &pb)
	var bc float64
	for i := range pa {
		bc += math.Sqrt(pa[i] * pb[i])
	}
	return bc
}

// binnedPMF counts h into equal-width bins starting at lo and divides by
// its total n.
func binnedPMF(h sketch.Hist, n, lo, width float64, p *[DefaultHellingerBins]float64) {
	for _, e := range h {
		i := int((e.Key - lo) / width)
		if i >= len(p) {
			i = len(p) - 1
		}
		if i < 0 {
			i = 0
		}
		p[i] += float64(e.Count)
	}
	for i := range p {
		p[i] /= n
	}
}
