// Package stats implements the statistics that vProf's post-profiling
// analysis relies on (paper §5.1): the k-sample Anderson-Darling test used
// to decide whether value-sample distributions from normal and buggy
// executions differ, and the Hellinger distance used to quantify how much
// they differ. It also provides the histogram, delta and run-length helpers
// the variable-discounter builds its three anomaly dimensions from.
//
// Everything is implemented from scratch on the standard library; the
// Anderson-Darling implementation follows Scholz & Stephens (1987), "K-Sample
// Anderson-Darling Tests", using the midrank (tie-aware) statistic and the
// same critical-value interpolation SciPy's anderson_ksamp uses — the paper's
// analysis was written in Python on top of SciPy.
package stats

import (
	"errors"
	"math"

	"vprof/internal/sketch"
)

// ErrDegenerate is returned by ADKSample and ADKSampleHist when the test is
// undefined: fewer than two samples, an empty sample, fewer than four pooled
// observations, or all pooled observations equal.
var ErrDegenerate = errors.New("stats: anderson-darling test undefined for input")

// ADResult is the outcome of a k-sample Anderson-Darling test.
type ADResult struct {
	// A2akN is the tie-adjusted rank statistic.
	A2akN float64
	// Stat is the standardized statistic (A2akN - (k-1)) / sigma.
	Stat float64
	// P is the approximate significance level at which the null
	// hypothesis (all samples drawn from a common distribution) can be
	// rejected. It is clamped to [0.001, 0.25] outside the interpolation
	// range, as in SciPy.
	P float64
}

// ADKSample runs the k-sample Anderson-Darling test on raw samples: each is
// counted into a histogram (sketch.HistOf sorts a copy of it) and the
// histograms go to ADKSampleHist. It is safe for concurrent use.
func ADKSample(samples ...[]float64) (ADResult, error) {
	hists := make([]sketch.Hist, len(samples))
	for i, s := range samples {
		hists[i] = sketch.HistOf(s)
	}
	return ADKSampleHist(hists...)
}

// adSide is one sample's cursor in ADKSampleHist's merge-join.
type adSide struct {
	h     sketch.Hist
	at    int     // next unread pair of h
	n     int64   // observations
	f     int64   // observations equal to the current pooled value
	cum   int64   // observations at or below the current pooled value
	inner float64 // the sample's term of the statistic so far
}

// ADKSampleHist runs the k-sample Anderson-Darling test on samples given as
// histograms. The statistic is a function of per-distinct-value counts, so
// one merge-join of the histograms visits each distinct pooled value z_j in
// ascending order with its pooled multiplicity, the pooled count below it,
// and each sample's count at and below it. The counts are integers, exact
// in float64, and the terms are summed in ascending j, so the result is the
// one the raw-series form gives bit for bit. The walk costs O(k·L) in the L
// distinct values and the variance's harmonic terms O(N); no sort remains.
// It is safe for concurrent use.
func ADKSampleHist(hists ...sketch.Hist) (ADResult, error) {
	k := len(hists)
	if k < 2 {
		return ADResult{}, ErrDegenerate
	}
	var buf [2]adSide // the discounter's two samples need no allocation
	sides := buf[:0]
	var N int64
	for _, h := range hists {
		n := h.Total()
		if n == 0 {
			return ADResult{}, ErrDegenerate
		}
		sides = append(sides, adSide{h: h, n: n})
		N += n
	}
	if N < 4 {
		return ADResult{}, ErrDegenerate
	}

	fN := float64(N)
	var below int64 // pooled observations below z_j
	for j := 0; ; j++ {
		// z_j is the smallest unread value of any sample.
		var z float64
		found := false
		for i := range sides {
			s := &sides[i]
			if s.at < len(s.h) && (!found || s.h[s.at].Key < z) {
				z, found = s.h[s.at].Key, true
			}
		}
		if !found {
			break
		}
		// A side holds z_j when its next value is not above it: equal to
		// it for any value but NaN, and true for the side z_j came from
		// even then, so the walk ends on any input.
		var l int64 // multiplicity of z_j in the pooled sample
		for i := range sides {
			s := &sides[i]
			s.f = 0
			if s.at < len(s.h) && !(s.h[s.at].Key > z) {
				s.f = s.h[s.at].Count
				s.at++
			}
			s.cum += s.f
			l += s.f
		}
		if j == 0 && l == N {
			// All pooled observations are equal.
			return ADResult{}, ErrDegenerate
		}
		lj := float64(l)
		bj := float64(below) + lj/2 // midrank position
		below += l
		denom := bj*(fN-bj) - fN*lj/4
		if denom <= 0 {
			continue
		}
		for i := range sides {
			s := &sides[i]
			fij := float64(s.f)
			mij := float64(s.cum) - fij/2
			num := fN*mij - bj*float64(s.n)
			s.inner += lj / fN * num * num / denom
		}
	}
	var a2akN float64
	for i := range sides {
		a2akN += sides[i].inner / float64(sides[i].n)
	}
	a2akN *= (fN - 1) / fN

	// Variance of the statistic under the null (Scholz & Stephens eq. 7).
	var H float64
	for i := range sides {
		H += 1 / float64(sides[i].n)
	}
	h, g := harmonicTerms(int(N))
	fk := float64(k)
	a := (4*g-6)*(fk-1) + (10-6*g)*H
	b := (2*g-4)*fk*fk + 8*h*fk + (2*g-14*h-4)*H - 8*h + 4*g - 6
	c := (6*h+2*g-2)*fk*fk + (4*h-4*g+6)*fk + (2*h-6)*H + 4*h
	d := (2*h+6)*fk*fk - 4*h*fk
	sigmaSq := (a*fN*fN*fN + b*fN*fN + c*fN + d) /
		((fN - 1) * (fN - 2) * (fN - 3))
	if sigmaSq <= 0 {
		return ADResult{}, ErrDegenerate
	}
	m := fk - 1
	stat := (a2akN - m) / math.Sqrt(sigmaSq)

	return ADResult{A2akN: a2akN, Stat: stat, P: adPValue(stat, m)}, nil
}

// harmonicTerms returns the h and g terms of the Scholz & Stephens variance
// formula for a pooled size of N. g is the double sum
// Σ_{i=1}^{N-2} Σ_{j=i+1}^{N-1} 1/((N-i)·j); grouping it by m = N-i gives
// Σ_{m=2}^{N-1} (Σ_{j=N-m+1}^{N-1} 1/j) / m, whose inner sum grows by one
// term per m, so one running sum computes it in O(N) — SciPy's cumulative-sum
// form. Both terms are pure functions of N.
func harmonicTerms(N int) (h, g float64) {
	for i := 1; i < N; i++ {
		h += 1 / float64(i)
	}
	var tail float64 // Σ_{j=N-m+1}^{N-1} 1/j
	for m := 2; m < N; m++ {
		tail += 1 / float64(N-m+1)
		g += tail / float64(m)
	}
	return h, g
}

// Interpolation tables from Scholz & Stephens (1987), Table 2, as used by
// SciPy: critical values at the listed significance levels are approximated
// by b0 + b1/sqrt(m) + b2/m, then log(sig) is fit quadratically in the
// critical value and evaluated at the observed statistic.
var (
	adSig = []float64{0.25, 0.10, 0.05, 0.025, 0.01, 0.005, 0.001}
	adB0  = []float64{0.675, 1.281, 1.645, 1.960, 2.326, 2.573, 3.085}
	adB1  = []float64{-0.245, 0.250, 0.678, 1.149, 1.822, 2.364, 3.615}
	adB2  = []float64{-0.105, -0.305, -0.362, -0.391, -0.396, -0.345, -0.154}

	// adLogSig is log(adSig), fixed at init so the hot p-value path takes
	// no logarithms and allocates nothing.
	adLogSig = func() [7]float64 {
		var out [7]float64
		for i, s := range adSig {
			out[i] = math.Log(s)
		}
		return out
	}()
)

func adPValue(stat, m float64) float64 {
	var crit [7]float64
	for i := range adSig {
		crit[i] = adB0[i] + adB1[i]/math.Sqrt(m) + adB2[i]/m
	}
	c0, c1, c2 := quadFit(crit[:], adLogSig[:])
	p := math.Exp(c0 + c1*stat + c2*stat*stat)
	// Clamp outside the table range, as SciPy does.
	if stat < crit[0] {
		return 0.25
	}
	if stat > crit[len(crit)-1] {
		return 0.001
	}
	if p > 0.25 {
		p = 0.25
	}
	if p < 0.001 {
		p = 0.001
	}
	return p
}

// quadFit fits y ~= c0 + c1*x + c2*x^2 by least squares.
func quadFit(x, y []float64) (c0, c1, c2 float64) {
	var s0, s1, s2, s3, s4 float64
	var t0, t1, t2 float64
	for i := range x {
		xi, yi := x[i], y[i]
		x2 := xi * xi
		s0++
		s1 += xi
		s2 += x2
		s3 += x2 * xi
		s4 += x2 * x2
		t0 += yi
		t1 += xi * yi
		t2 += x2 * yi
	}
	// Solve the 3x3 normal equations with Cramer's rule.
	det := s0*(s2*s4-s3*s3) - s1*(s1*s4-s2*s3) + s2*(s1*s3-s2*s2)
	if det == 0 {
		return 0, 0, 0
	}
	c0 = (t0*(s2*s4-s3*s3) - s1*(t1*s4-t2*s3) + s2*(t1*s3-t2*s2)) / det
	c1 = (s0*(t1*s4-t2*s3) - t0*(s1*s4-s2*s3) + s2*(s1*t2-s2*t1)) / det
	c2 = (s0*(s2*t2-s3*t1) - s1*(s1*t2-s2*t1) + t0*(s1*s3-s2*s2)) / det
	return c0, c1, c2
}
