package stats

// The raw-series kernels: ADKSample and HellingerBins as they were written
// before the discounter read histograms, each sorting its own copies of the
// expanded observation series. They no longer ship, but they stay the
// reference the histogram kernels are checked against, bit for bit, by
// TestHistKernelsMatchOracle and FuzzHistKernels.

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"vprof/internal/sketch"
)

type oracleADScratch struct {
	pooled []float64
	sorted []float64
	zstar  []float64
	lj, bj []float64
	n      []int
}

var oracleADScratchPool = sync.Pool{New: func() any { return new(oracleADScratch) }}

// oracleGrow returns buf with length n, reusing its backing array when possible.
func oracleGrow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// oracleADKSample runs the k-sample Anderson-Darling test on the given samples.
// It is safe for concurrent use.
func oracleADKSample(samples ...[]float64) (ADResult, error) {
	k := len(samples)
	if k < 2 {
		return ADResult{}, ErrDegenerate
	}
	sc := oracleADScratchPool.Get().(*oracleADScratch)
	defer oracleADScratchPool.Put(sc)
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
	pooled := oracleGrow(sc.pooled, N)[:0]
	for _, s := range samples {
		pooled = append(pooled, s...)
	}
	sc.pooled = pooled
	sort.Float64s(pooled)
	if pooled[0] == pooled[N-1] {
		return ADResult{}, ErrDegenerate
	}

	// Distinct pooled values and their multiplicities.
	zstar := oracleGrow(sc.zstar, N)[:1]
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

	lj := oracleGrow(sc.lj, L) // multiplicity of zstar[j] in pooled
	bj := oracleGrow(sc.bj, L) // midrank position
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
		s := append(oracleGrow(sc.sorted, len(samples[i]))[:0], samples[i]...)
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

type oracleHellScratch struct {
	a, b     []float64
	distinct []float64
	pa, pb   []float64
}

var oracleHellScratchPool = sync.Pool{New: func() any { return new(oracleHellScratch) }}

// oracleHellingerBins is the Hellinger distance between two raw samples
// with an explicit bin budget (minimum 2).
func oracleHellingerBins(a, b []float64, bins int) float64 {
	switch {
	case len(a) == 0 && len(b) == 0:
		return 0
	case len(a) == 0 || len(b) == 0:
		return 1
	}
	if bins < 2 {
		bins = 2
	}

	sc := oracleHellScratchPool.Get().(*oracleHellScratch)
	defer oracleHellScratchPool.Put(sc)
	sa := append(oracleGrow(sc.a, len(a))[:0], a...)
	sb := append(oracleGrow(sc.b, len(b))[:0], b...)
	sc.a, sc.b = sa, sb
	sort.Float64s(sa)
	sort.Float64s(sb)

	distinct := oracleMergeDistinct(sa, sb, oracleGrow(sc.distinct, len(a)+len(b))[:0])
	sc.distinct = distinct

	var pa, pb []float64
	if len(distinct) <= bins {
		pa = oracleSortedPMF(sa, distinct, oracleGrow(sc.pa, len(distinct)))
		pb = oracleSortedPMF(sb, distinct, oracleGrow(sc.pb, len(distinct)))
	} else {
		lo, hi := distinct[0], distinct[len(distinct)-1]
		pa = oracleBinnedPMF(sa, lo, hi, bins, oracleGrow(sc.pa, bins))
		pb = oracleBinnedPMF(sb, lo, hi, bins, oracleGrow(sc.pb, bins))
	}
	sc.pa, sc.pb = pa, pb

	// H^2 = 1 - sum sqrt(p_i * q_i)  (Bhattacharyya coefficient).
	var bc float64
	for i := range pa {
		bc += math.Sqrt(pa[i] * pb[i])
	}
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// oracleMergeDistinct appends the sorted distinct union of two sorted slices to
// out.
func oracleMergeDistinct(sa, sb, out []float64) []float64 {
	i, j := 0, 0
	for i < len(sa) || j < len(sb) {
		var v float64
		switch {
		case j >= len(sb) || (i < len(sa) && sa[i] <= sb[j]):
			v = sa[i]
			i++
		default:
			v = sb[j]
			j++
		}
		if len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// oracleSortedPMF computes the empirical PMF of a sorted sample over the distinct
// support in one merged walk (the sample's values are a subset of distinct).
func oracleSortedPMF(s, distinct, p []float64) []float64 {
	for i := range p {
		p[i] = 0
	}
	d := 0
	for _, v := range s {
		for distinct[d] != v {
			d++
		}
		p[d]++
	}
	inv := float64(len(s))
	for i := range p {
		p[i] /= inv
	}
	return p
}

func oracleBinnedPMF(s []float64, lo, hi float64, bins int, p []float64) []float64 {
	for i := range p {
		p[i] = 0
	}
	width := (hi - lo) / float64(bins)
	if width <= 0 {
		p[0] = 1
		return p
	}
	for _, v := range s {
		i := int((v - lo) / width)
		if i >= bins {
			i = bins - 1
		}
		if i < 0 {
			i = 0
		}
		p[i]++
	}
	for i := range p {
		p[i] /= float64(len(s))
	}
	return p
}

// expand lists a histogram's observations in ascending order, each value
// repeated by its count: the series the raw-series kernels read.
func expand(h sketch.Hist) []float64 {
	out := make([]float64, 0, h.Total())
	for _, e := range h {
		for c := e.Count; c > 0; c-- {
			out = append(out, e.Key)
		}
	}
	return out
}

// checkKernels compares the histogram kernels with the raw-series oracles
// on a and b, every field with ==.
func checkKernels(t *testing.T, a, b sketch.Hist) {
	t.Helper()
	ra, rb := expand(a), expand(b)
	want, wantErr := oracleADKSample(ra, rb)
	got, err := ADKSampleHist(a, b)
	if got != want || err != wantErr {
		t.Fatalf("ADKSampleHist(%v, %v) = %+v, %v; oracle %+v, %v", a, b, got, err, want, wantErr)
	}
	// The raw-sample wrapper counts unsorted input.
	rand.New(rand.NewSource(int64(len(ra)))).Shuffle(len(ra), func(i, j int) { ra[i], ra[j] = ra[j], ra[i] })
	if got, err := ADKSample(ra, rb); got != want || err != wantErr {
		t.Fatalf("ADKSample(%v, %v) = %+v, %v; oracle %+v, %v", ra, rb, got, err, want, wantErr)
	}
	wantD := oracleHellingerBins(expand(a), rb, DefaultHellingerBins)
	if d := Hellinger(a, b); d != wantD {
		t.Fatalf("Hellinger(%v, %v) = %v; oracle %v", a, b, d, wantD)
	}
}

// histFromBytes builds two histograms from fuzz bytes. data[0] picks the
// value scale (integers, quarters, millions, thousandths, or steps of
// three); every following pair of bytes adds 1 to 8 observations of an
// int8-indexed value to one side, so ties within and across the sides are
// common and 33 or more distinct values take the binned Hellinger path.
func histFromBytes(data []byte) (a, b sketch.Hist) {
	if len(data) == 0 {
		return nil, nil
	}
	scale := []float64{1, 0.25, 1e6, 1e-3, 3}[int(data[0])%5]
	var sides [2][]float64
	for i := 1; i+1 < len(data); i += 2 {
		side, n := data[i]&1, int(data[i]>>1)&7+1
		for ; n > 0; n-- {
			sides[side] = append(sides[side], float64(int8(data[i+1]))*scale)
		}
	}
	return sketch.HistOf(sides[0]), sketch.HistOf(sides[1])
}

// TestHistKernelsMatchOracle checks the histogram kernels against the
// raw-series oracles on fixed edge cases and random histograms, and the
// k-sample wrapper at k = 3.
func TestHistKernelsMatchOracle(t *testing.T) {
	h := func(s ...float64) sketch.Hist { return sketch.HistOf(s) }
	wide := make([]float64, 0, 80)
	for i := 0; i < 80; i++ {
		wide = append(wide, float64(i*i%97))
	}
	for _, c := range []struct{ a, b sketch.Hist }{
		{nil, nil},
		{nil, h(1, 2, 3)},
		{h(1, 2, 3), nil},
		{h(5), h(5)},                   // N < 4
		{h(1, 2), h(3)},                // N < 4
		{h(7, 7, 7), h(7, 7)},          // one distinct value
		{h(7, 7, 7), h(8, 8)},          // one per side
		{h(3, 6, 6, 6, 9), h(3, 6, 8)}, // ties
		{h(wide[:40]...), h(wide[20:]...)},
		{h(wide...), h(1, 2)},
		{h(1, 2), h(wide...)},
		{h(wide[:20]...), h(wide[10:30]...)}, // union of 33 or more from two small sides
		{h(-1e300, 1e300), h(0, 5, 5)},
	} {
		checkKernels(t, c.a, c.b)
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 1+2*rng.Intn(60))
		rng.Read(data)
		a, b := histFromBytes(data)
		checkKernels(t, a, b)
	}
	for i := 0; i < 200; i++ {
		var samples [3][]float64
		for s := range samples {
			for n := rng.Intn(30); n > 0; n-- {
				samples[s] = append(samples[s], float64(rng.Intn(12)))
			}
		}
		want, wantErr := oracleADKSample(samples[:]...)
		if got, err := ADKSample(samples[:]...); got != want || err != wantErr {
			t.Fatalf("ADKSample(%v) = %+v, %v; oracle %+v, %v", samples, got, err, want, wantErr)
		}
	}
}

// FuzzHistKernels compares ADKSampleHist and Hellinger with the raw-series
// oracles on the histograms histFromBytes builds.
func FuzzHistKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5})                         // one side empty
	f.Add([]byte{0, 0, 5, 1, 5})                   // one distinct value, N < 4
	f.Add([]byte{1, 14, 3, 15, 3, 0, 4, 3, 9})     // ties across the sides
	f.Add([]byte{2, 0, 1, 1, 2, 0, 3, 1, 4, 0, 5}) // several distinct values
	wide := []byte{3}
	for v := 0; v < 40; v++ {
		wide = append(wide, byte(v&1), byte(v*5))
	}
	f.Add(wide) // more distinct values than Hellinger bins
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := histFromBytes(data)
		checkKernels(t, a, b)
	})
}
