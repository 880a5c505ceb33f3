package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestADNominalRejectionRate draws many same-distribution sample pairs and
// checks the Anderson-Darling test rejects at roughly the nominal p=0.05
// rate: under the null hypothesis, P(p < 0.05) ≈ 0.05. The p-value comes
// from a quadratic interpolation of tabulated critical values (clamped to
// [0.001, 0.25]), so the achieved rate is approximate; the bounds below are
// ±4 binomial standard deviations around the nominal 5%.
func TestADNominalRejectionRate(t *testing.T) {
	const (
		trials  = 400
		n       = 40
		nominal = 0.05
	)
	rng := rand.New(rand.NewSource(20230427))
	rejected := 0
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			// Integer-valued samples, like real variable samples; ties
			// exercise the midrank statistic.
			a[i] = float64(rng.Intn(25))
			b[i] = float64(rng.Intn(25))
		}
		res, err := ADKSample(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.P < nominal {
			rejected++
		}
	}
	rate := float64(rejected) / trials
	sd := math.Sqrt(nominal * (1 - nominal) / trials)
	lo, hi := nominal-4*sd, nominal+4*sd
	if rate < lo || rate > hi {
		t.Errorf("null rejection rate = %.3f (%d/%d), want within [%.3f, %.3f]",
			rate, rejected, trials, lo, hi)
	}
}

// TestADDetectsShiftedDistribution is the power-side complement: clearly
// different distributions must reject far above the nominal rate.
func TestADDetectsShiftedDistribution(t *testing.T) {
	const trials = 100
	rng := rand.New(rand.NewSource(7))
	rejected := 0
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 40)
		b := make([]float64, 40)
		for i := range a {
			a[i] = float64(rng.Intn(25))
			b[i] = float64(rng.Intn(25) + 18)
		}
		res, err := ADKSample(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.P < 0.05 {
			rejected++
		}
	}
	if rejected < trials*9/10 {
		t.Errorf("shifted distributions rejected only %d/%d times", rejected, trials)
	}
}

// clampSample maps arbitrary quick-generated values into a small integer
// domain so properties are exercised with heavy ties, like real value
// samples.
func clampSample(raw []int16) []float64 {
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = float64(v % 32)
	}
	return out
}

func TestHellingerPropertyRangeAndSymmetry(t *testing.T) {
	prop := func(ra, rb []int16) bool {
		a, b := clampSample(ra), clampSample(rb)
		d1 := hellingerOf(a, b)
		d2 := hellingerOf(b, a)
		if math.Abs(d1-d2) > 1e-12 {
			t.Logf("asymmetric: %v vs %v", d1, d2)
			return false
		}
		if d1 < 0 || d1 > 1 || math.IsNaN(d1) {
			t.Logf("out of range: %v", d1)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func TestHellingerPropertyIdenticalIsZero(t *testing.T) {
	prop := func(ra []int16) bool {
		a := clampSample(ra)
		d := hellingerOf(a, a)
		// Identical samples have identical PMFs; sqrt(p*p) can land an ulp
		// off p, so BC sums to 1 within a few ulps and the distance to 0
		// within sqrt of that.
		return d < 1e-7
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

func TestHellingerPropertyDisjointIsOne(t *testing.T) {
	prop := func(ra, rb []int16) bool {
		if len(ra) == 0 || len(rb) == 0 {
			return true
		}
		a := make([]float64, len(ra))
		b := make([]float64, len(rb))
		for i, v := range ra {
			a[i] = float64(v%8)*2 + 1 // odd support
		}
		for i, v := range rb {
			b[i] = float64(v%8) * 2 // even support
		}
		// At most 30 distinct values in all: the exact path, where the
		// supports never share a bin.
		d := hellingerOf(a, b)
		return math.Abs(d-1) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// TestRunLengthRoundTrip checks that Compress and RunLengths together are a
// lossless encoding of a series: repeating each distinct value by its run
// length reconstructs the original exactly.
func TestRunLengthRoundTrip(t *testing.T) {
	prop := func(raw []int16) bool {
		s := make([]float64, len(raw))
		for i, v := range raw {
			s[i] = float64(v % 4) // small alphabet → long runs
		}
		values := Compress(s)
		lengths := RunLengths(s)
		if len(values) != len(lengths) {
			t.Logf("len(Compress)=%d != len(RunLengths)=%d", len(values), len(lengths))
			return false
		}
		var rebuilt []float64
		for i, v := range values {
			for j := 0; j < int(lengths[i]); j++ {
				rebuilt = append(rebuilt, v)
			}
		}
		if len(rebuilt) != len(s) {
			return false
		}
		for i := range s {
			if rebuilt[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Error(err)
	}
}

// TestADKSampleConcurrent calls the kernels from many goroutines with
// differently-sized inputs and checks results match the single-goroutine
// answers bit-for-bit (run under -race this also proves the kernels share no
// state).
func TestADKSampleConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	type c struct{ a, b []float64 }
	cases := make([]c, 64)
	want := make([]ADResult, len(cases))
	for i := range cases {
		n := 5 + rng.Intn(60)
		m := 5 + rng.Intn(60)
		a := make([]float64, n)
		b := make([]float64, m)
		for j := range a {
			a[j] = float64(rng.Intn(30))
		}
		for j := range b {
			b[j] = float64(rng.Intn(40))
		}
		cases[i] = c{a, b}
		res, err := ADKSample(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for rep := 0; rep < 20; rep++ {
				for i, tc := range cases {
					res, err := ADKSample(tc.a, tc.b)
					if err != nil {
						done <- err
						return
					}
					if res != want[i] {
						done <- errMismatch
						return
					}
					if d := hellingerOf(tc.a, tc.b); d < 0 || d > 1 {
						done <- errMismatch
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("concurrent result differs from sequential")

type errorString string

func (e errorString) Error() string { return string(e) }
