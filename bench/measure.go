package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quartiles(xs)[1]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocated is the number of bytes the process has allocated on the
// heap so far. Unlike the resident-set high-water mark or the peak live
// heap, both of which moved by a fifth between runs of one op list because
// they depend on when the collector runs, it repeats from run to run.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hdQuantile estimates the q-quantile (0 < q < 1) of xs with the
// Harrell-Davis estimator: a weighted mean of every order statistic, the
// i-th weighted by the probability a Beta((n+1)q, (n+1)(1-q)) variable
// falls in ((i-1)/n, i/n]. A single order statistic jumps when two ops
// swap places, which in a mix of ops whose costs differ a hundredfold moved
// the median by a fifth between runs.
func hdQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	var est, prev float64
	for i, x := range s {
		cdf := regIncBeta(a, b, float64(i+1)/n)
		est += (cdf - prev) * x
		prev = cdf
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (2nd ed., §6.4).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

func betaFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}
