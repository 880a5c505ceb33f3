package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vprof/internal/sketch"
)

// hellingerOf is Hellinger over two raw samples.
func hellingerOf(a, b []float64) float64 {
	return Hellinger(sketch.HistOf(a), sketch.HistOf(b))
}

func TestHellingerIdentical(t *testing.T) {
	a := []float64{1, 2, 2, 3, 3, 3}
	if d := hellingerOf(a, a); d > 1e-9 {
		t.Errorf("Hellinger(a,a) = %v, want 0", d)
	}
}

func TestHellingerDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{100, 200, 300}
	if d := hellingerOf(a, b); math.Abs(d-1) > 1e-9 {
		t.Errorf("disjoint distance = %v, want 1", d)
	}
}

func TestHellingerEmpty(t *testing.T) {
	if d := hellingerOf(nil, nil); d != 0 {
		t.Errorf("both empty: %v, want 0", d)
	}
	if d := hellingerOf(nil, []float64{1}); d != 1 {
		t.Errorf("one empty: %v, want 1", d)
	}
}

func TestHellingerPartialOverlap(t *testing.T) {
	a := []float64{1, 1, 2, 2}
	b := []float64{2, 2, 3, 3}
	d := hellingerOf(a, b)
	if d <= 0.1 || d >= 0.95 {
		t.Errorf("partial overlap distance = %v, want intermediate", d)
	}
}

func TestHellingerBinnedLargeRange(t *testing.T) {
	// Many distinct values forces binning.
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64() * 100
		b[i] = rng.NormFloat64() * 100
	}
	if d := hellingerOf(a, b); d > 0.35 {
		t.Errorf("same-distribution binned distance = %v, want small", d)
	}
	for i := range b {
		b[i] += 1000
	}
	if d := hellingerOf(a, b); d < 0.95 {
		t.Errorf("shifted binned distance = %v, want ~1", d)
	}
}

// Properties: range [0,1] and symmetry.
func TestHellingerPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		m := 1 + rng.Intn(40)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = float64(rng.Intn(20) - 10)
		}
		for i := range b {
			b[i] = float64(rng.Intn(20) - 10)
		}
		d1 := hellingerOf(a, b)
		d2 := hellingerOf(b, a)
		return d1 >= 0 && d1 <= 1 && math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeltas(t *testing.T) {
	got := Deltas([]float64{3, 6, 6, 9, 5})
	want := []float64{3, 0, 3, -4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if Deltas([]float64{1}) != nil {
		t.Error("single-element deltas should be nil")
	}
}

func TestRunLengths(t *testing.T) {
	got := RunLengths([]float64{3, 6, 6, 6, 6, 9})
	want := []float64{1, 4, 1}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if RunLengths(nil) != nil {
		t.Error("empty input should give nil")
	}
}

// Property: run lengths sum to the series length.
func TestRunLengthsSumQuick(t *testing.T) {
	f := func(vals []uint8) bool {
		s := make([]float64, len(vals))
		for i, v := range vals {
			s[i] = float64(v % 4) // force runs
		}
		var sum float64
		for _, r := range RunLengths(s) {
			sum += r
		}
		return sum == float64(len(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMinMax(t *testing.T) {
	s := []float64{4, -2, 10, 0}
	if m := Mean(s); m != 3 {
		t.Errorf("mean = %v", m)
	}
	lo, hi, ok := MinMax(s)
	if !ok || lo != -2 || hi != 10 {
		t.Errorf("minmax = %v %v %v", lo, hi, ok)
	}
	if _, _, ok := MinMax(nil); ok {
		t.Error("MinMax(nil) should report !ok")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}

func TestRanks(t *testing.T) {
	r := Ranks(map[string]float64{"a": 10, "b": 30, "c": 20, "d": 20})
	if r["b"] != 1 {
		t.Errorf("b rank = %d", r["b"])
	}
	if r["c"] != 2 || r["d"] != 2 {
		t.Errorf("tied ranks: c=%d d=%d", r["c"], r["d"])
	}
	if r["a"] != 3 {
		t.Errorf("a rank = %d", r["a"])
	}
}
