package stats

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestADIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	r, err := ADKSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P < 0.25 {
		t.Errorf("identical samples: p = %v, want 0.25 (cannot reject null)", r.P)
	}
}

func TestADSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	r, err := ADKSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P < 0.05 {
		t.Errorf("same-distribution samples rejected: p = %v, stat = %v", r.P, r.Stat)
	}
}

func TestADDifferentDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()         // normal(0,1)
		b[i] = rng.Float64()*20.0 - 10.0 // uniform(-10,10)
	}
	r, err := ADKSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P > 0.01 {
		t.Errorf("clearly different samples not rejected: p = %v, stat = %v", r.P, r.Stat)
	}
}

// The paper's shape-not-location property: two same-shape distributions with
// different means are different under AD (it is a general distribution test),
// but a mean shift of a wide distribution by a small fraction of its spread
// is not flagged. Verify the directional behavior on a large shift.
func TestADMeanShiftDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 300)
	b := make([]float64, 300)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 8 // far-separated means
	}
	r, err := ADKSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P > 0.001 {
		t.Errorf("disjoint samples: p = %v, want 0.001", r.P)
	}
}

func TestADThreeSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(shift float64) []float64 {
		s := make([]float64, 100)
		for i := range s {
			s[i] = rng.NormFloat64() + shift
		}
		return s
	}
	same, err := ADKSample(mk(0), mk(0), mk(0))
	if err != nil {
		t.Fatal(err)
	}
	diff, err := ADKSample(mk(0), mk(0), mk(6))
	if err != nil {
		t.Fatal(err)
	}
	if same.P < 0.05 {
		t.Errorf("3 same samples rejected: p=%v", same.P)
	}
	if diff.P > 0.01 {
		t.Errorf("3rd shifted sample not detected: p=%v", diff.P)
	}
}

func TestADWithHeavyTies(t *testing.T) {
	// Induction-variable style samples: small integer values, many ties.
	a := []float64{3, 6, 6, 6, 6, 9, 3, 6, 6, 6, 6, 9}
	b := []float64{3, 6, 8, 3, 6, 8, 3, 6, 8, 3, 6, 8}
	r, err := ADKSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(r.Stat) || math.IsInf(r.Stat, 0) {
		t.Fatalf("stat not finite with ties: %v", r.Stat)
	}
}

func TestADDegenerateInputs(t *testing.T) {
	cases := [][][]float64{
		{{1, 2, 3}},      // one sample
		{{}, {1, 2, 3}},  // empty sample
		{{1, 1}, {1, 1}}, // all pooled equal
		{{1}, {1}},       // too few observations
	}
	for i, c := range cases {
		if _, err := ADKSample(c...); err == nil {
			t.Errorf("case %d: expected ErrDegenerate", i)
		}
	}
}

func TestADOrderInvariance(t *testing.T) {
	a := []float64{5, 1, 4, 2, 8, 9, 7, 7, 3}
	b := []float64{10, 2, 2, 6, 4, 12, 11, 3, 5}
	r1, err := ADKSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ADKSample(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Stat-r2.Stat) > 1e-9 {
		t.Errorf("statistic depends on sample order: %v vs %v", r1.Stat, r2.Stat)
	}
}

// Property: the AD statistic is rank-based, so any strictly increasing
// transform of all observations leaves it unchanged.
func TestADMonotoneInvarianceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(30)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(15))
			b[i] = float64(rng.Intn(15) + rng.Intn(3))
		}
		r1, err1 := ADKSample(a, b)
		ta := make([]float64, n)
		tb := make([]float64, n)
		for i := range a {
			ta[i] = math.Exp(a[i] / 3)
			tb[i] = math.Exp(b[i] / 3)
		}
		r2, err2 := ADKSample(ta, tb)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return math.Abs(r1.A2akN-r2.A2akN) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuadFit(t *testing.T) {
	// Fit an exact quadratic and recover its coefficients.
	x := []float64{-2, -1, 0, 1, 2, 3}
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = 1.5 - 2*xi + 0.5*xi*xi
	}
	c0, c1, c2 := quadFit(x, y)
	if math.Abs(c0-1.5) > 1e-9 || math.Abs(c1+2) > 1e-9 || math.Abs(c2-0.5) > 1e-9 {
		t.Errorf("quadFit = %v %v %v, want 1.5 -2 0.5", c0, c1, c2)
	}
}

func TestADPValueMonotone(t *testing.T) {
	// Larger standardized statistics must not yield larger p-values.
	prev := 1.0
	for stat := -2.0; stat < 6; stat += 0.25 {
		p := adPValue(stat, 1)
		if p > prev+1e-12 {
			t.Fatalf("p-value not monotone at stat=%v: %v > %v", stat, p, prev)
		}
		prev = p
	}
}

// quadraticHarmonicTerms is the direct O(N²) evaluation of the Scholz &
// Stephens h and g terms, kept as the reference oracle for harmonicTerms.
func quadraticHarmonicTerms(N int) (h, g float64) {
	for i := 1; i < N; i++ {
		h += 1 / float64(i)
	}
	for i := 1; i <= N-2; i++ {
		for j := i + 1; j <= N-1; j++ {
			g += 1 / (float64(N-i) * float64(j))
		}
	}
	return h, g
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

// TestHarmonicTerms checks h and g against exact rational arithmetic and
// against the direct double sum. An off-by-one in either loop bound moves g
// by about 1/N, far outside both tolerances.
func TestHarmonicTerms(t *testing.T) {
	// Exact reference: with L = lcm(1..N-1), A[k] = L·Σ_{i=1}^{k} 1/i is an
	// integer for k < N, so h = A[N-1]/L and
	// g = Σ_{j=2}^{N-1} (A[N-1] - A[N-j])·(L/j) / L², which sums the double
	// sum column by column rather than row by row.
	L := big.NewInt(2) // lcm(1, 2)
	for N := 4; N <= 400; N++ {
		next := big.NewInt(int64(N - 1))
		gcd := new(big.Int).GCD(nil, nil, L, next)
		L.Mul(L, next.Quo(next, gcd))
		A := make([]*big.Int, N)
		A[0] = new(big.Int)
		for k := 1; k < N; k++ {
			A[k] = new(big.Int).Add(A[k-1], new(big.Int).Quo(L, big.NewInt(int64(k))))
		}
		num, term := new(big.Int), new(big.Int)
		for j := 2; j < N; j++ {
			term.Sub(A[N-1], A[N-j])
			num.Add(num, term.Mul(term, new(big.Int).Quo(L, big.NewInt(int64(j)))))
		}
		wantH, _ := new(big.Rat).SetFrac(A[N-1], L).Float64()
		wantG, _ := new(big.Rat).SetFrac(num, new(big.Int).Mul(L, L)).Float64()
		h, g := harmonicTerms(N)
		if e := relErr(h, wantH); e > 1e-14 {
			t.Errorf("N=%d: h = %v, exact %v (rel err %.3g)", N, h, wantH, e)
		}
		if e := relErr(g, wantG); e > 1e-14 {
			t.Errorf("N=%d: g = %v, exact %v (rel err %.3g)", N, g, wantG, e)
		}
	}

	var sizes []int
	for N := 4; N <= 64; N++ {
		sizes = append(sizes, N)
	}
	for _, N := range append(sizes, 1000, 5000) {
		wantH, wantG := quadraticHarmonicTerms(N)
		h, g := harmonicTerms(N)
		if e := relErr(h, wantH); e > 1e-12 {
			t.Errorf("N=%d: h = %v, double loop %v (rel err %.3g)", N, h, wantH, e)
		}
		if e := relErr(g, wantG); e > 1e-12 {
			t.Errorf("N=%d: g = %v, double loop %v (rel err %.3g)", N, g, wantG, e)
		}
	}
}
