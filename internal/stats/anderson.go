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
	"sort"
	"sync"
)

// ErrDegenerate is returned by ADKSample when the test is undefined: fewer
// than two samples, an empty sample, or all pooled observations equal.
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

// adScratch holds the per-call working buffers of ADKSample. Calls are hot
// (one per variable per dimension, across every workload of a table run) and
// were allocation-bound; the buffers are pooled and resized in place so the
// steady state allocates nothing. Pooling only changes where the memory
// comes from — the arithmetic and its order are untouched, keeping results
// bit-identical to the original implementation.
type adScratch struct {
	pooled []float64
	sorted []float64
	zstar  []float64
	lj, bj []float64
	n      []int
}

var adScratchPool = sync.Pool{New: func() any { return new(adScratch) }}

// grow returns buf with length n, reusing its backing array when possible.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ADKSample runs the k-sample Anderson-Darling test on the given samples.
// It is safe for concurrent use.
func ADKSample(samples ...[]float64) (ADResult, error) {
	k := len(samples)
	if k < 2 {
		return ADResult{}, ErrDegenerate
	}
	sc := adScratchPool.Get().(*adScratch)
	defer adScratchPool.Put(sc)
	if cap(sc.n) < k {
		sc.n = make([]int, k)
	}
	n := sc.n[:k]
	N := 0
	for i, s := range samples {
		if len(s) == 0 {
			return ADResult{}, ErrDegenerate
		}
		n[i] = len(s)
		N += len(s)
	}
	if N < 4 {
		return ADResult{}, ErrDegenerate
	}
	pooled := grow(sc.pooled, N)[:0]
	for _, s := range samples {
		pooled = append(pooled, s...)
	}
	sc.pooled = pooled
	sort.Float64s(pooled)
	if pooled[0] == pooled[N-1] {
		return ADResult{}, ErrDegenerate
	}

	// Distinct pooled values and their multiplicities.
	zstar := grow(sc.zstar, N)[:1]
	zstar[0] = pooled[0]
	for _, v := range pooled[1:] {
		if v != zstar[len(zstar)-1] {
			zstar = append(zstar, v)
		}
	}
	sc.zstar = zstar
	L := len(zstar)

	searchLeft := func(s []float64, v float64) int {
		return sort.SearchFloat64s(s, v)
	}
	searchRight := func(s []float64, v float64) int {
		return sort.Search(len(s), func(i int) bool { return s[i] > v })
	}

	lj := grow(sc.lj, L) // multiplicity of zstar[j] in pooled
	bj := grow(sc.bj, L) // midrank position
	sc.lj, sc.bj = lj, bj
	for j, v := range zstar {
		l := searchLeft(pooled, v)
		r := searchRight(pooled, v)
		lj[j] = float64(r - l)
		bj[j] = float64(l) + lj[j]/2
	}

	fN := float64(N)
	var a2akN float64
	for i := 0; i < k; i++ {
		s := append(grow(sc.sorted, len(samples[i]))[:0], samples[i]...)
		sc.sorted = s
		sort.Float64s(s)
		var inner float64
		for j, v := range zstar {
			right := float64(searchRight(s, v))
			fij := right - float64(searchLeft(s, v))
			mij := right - fij/2
			denom := bj[j]*(fN-bj[j]) - fN*lj[j]/4
			if denom <= 0 {
				continue
			}
			num := fN*mij - bj[j]*float64(n[i])
			inner += lj[j] / fN * num * num / denom
		}
		a2akN += inner / float64(n[i])
	}
	a2akN *= (fN - 1) / fN

	// Variance of the statistic under the null (Scholz & Stephens eq. 7).
	var H float64
	for _, ni := range n {
		H += 1 / float64(ni)
	}
	h, g := harmonicTerms(N)
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
