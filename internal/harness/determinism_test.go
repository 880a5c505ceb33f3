package harness_test

import (
	"reflect"
	"testing"
)

// The parallel analysis engine must be invisible in the output: every table
// rendered with an 8-way worker pool must be byte-for-byte identical to the
// sequential (workers=1) rendering. These are the determinism tests for the
// worker-pool fan-out in table3.go / table45.go and the parallel discounter
// underneath them; the renderings are the ones the golden equivalence gate
// in engine_equiv_test.go checks.

func TestTable3DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 is slow")
	}
	seq, par := table3At(t, 1), table3At(t, 8)
	if seq.text != par.text {
		t.Errorf("Table 3 differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq.text, par.text)
	}
	if !reflect.DeepEqual(seq.rows, par.rows) {
		t.Errorf("Table 3 rows differ:\nworkers=1: %+v\nworkers=8: %+v", seq.rows, par.rows)
	}
}

func TestTable4DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 is slow")
	}
	if want, got := table4At(t, 1), table4At(t, 8); got != want {
		t.Errorf("Table 4 differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", want, got)
	}
}

func TestTable5DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 5 is slow")
	}
	if want, got := table5At(t, 1), table5At(t, 8); got != want {
		t.Errorf("Table 5 (timings masked) differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", want, got)
	}
}

func TestFigure8DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 8 sweep is slow")
	}
	if want, got := figure8At(t, 1).text, figure8At(t, 8).text; got != want {
		t.Errorf("Figure 8 differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", want, got)
	}
}
