package harness_test

import (
	"fmt"
	"testing"

	"vprof/internal/harness"
)

// Golden equivalence gate for the register execution engine: every paper
// artifact — Tables 3/4/5, Figure 8 and the 18-issue causal validation
// table — rendered by the register engine, sequentially (workers=1) and on
// an 8-way worker pool, must equal byte for byte the checked-in golden under
// testdata/golden that the tree-walking reference interpreter produced
// (wall-clock timings masked). The continuous-mode replay has the same gate
// in TestReplayContinuousEngineEquivalence (internal/sim's replay-single
// schedule).
//
// Each artifact is computed once per worker count and the result is shared
// with the determinism and causal validation tests, so a full suite runs
// every artifact twice.

var goldenWorkers = []int{1, 8}

// atWorkers runs check once per worker count, each as its own subtest.
func atWorkers(t *testing.T, check func(t *testing.T, workers int)) {
	for _, workers := range goldenWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { check(t, workers) })
	}
}

// artifacts memoizes artifactAt results by name and worker count. The
// harness tests that read it never call t.Parallel, so it needs no lock.
var artifacts = map[string]any{}

// artifactAt returns run(workers), computing it once per test binary.
func artifactAt[T any](t *testing.T, name string, workers int, run func(workers int) (T, error)) T {
	t.Helper()
	key := fmt.Sprintf("%s/workers=%d", name, workers)
	if v, ok := artifacts[key]; ok {
		return v.(T)
	}
	v, err := run(workers)
	if err != nil {
		t.Fatal(err)
	}
	artifacts[key] = v
	return v
}

type table3Result struct {
	text string
	rows []harness.Table3Row
}

func table3At(t *testing.T, workers int) table3Result {
	return artifactAt(t, "table3", workers, func(w int) (table3Result, error) {
		text, rows, err := harness.Table3(w)
		return table3Result{text, rows}, err
	})
}

func table4At(t *testing.T, workers int) string {
	return artifactAt(t, "table4", workers, func(w int) (string, error) {
		cases, err := harness.Table4(w)
		return harness.RenderTable4(cases), err
	})
}

// table5At renders Table 5 with InitMs and WallMs zeroed: they are
// wall-clock measurements and legitimately vary between runs.
func table5At(t *testing.T, workers int) string {
	return artifactAt(t, "table5", workers, func(w int) (string, error) {
		rows, err := harness.Table5(w)
		for i := range rows {
			rows[i].InitMs, rows[i].WallMs = 0, 0
		}
		return harness.RenderTable5(rows), err
	})
}

func figure8At(t *testing.T, workers int) string {
	return artifactAt(t, "figure8", workers, func(w int) (string, error) {
		res, err := harness.Figure8(w)
		if err != nil {
			return "", err
		}
		return harness.RenderFigure8(res), nil
	})
}

type causalResult struct {
	text string
	rows []harness.CausalRow
}

func causalAt(t *testing.T, workers int) causalResult {
	return artifactAt(t, "causal", workers, func(w int) (causalResult, error) {
		text, rows, err := harness.CausalValidation(w)
		return causalResult{text, rows}, err
	})
}

func TestTable3EngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 is slow")
	}
	atWorkers(t, func(t *testing.T, workers int) {
		harness.CheckGolden(t, "table3.txt", table3At(t, workers).text)
	})
}

func TestTable4EngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 is slow")
	}
	atWorkers(t, func(t *testing.T, workers int) {
		harness.CheckGolden(t, "table4.txt", table4At(t, workers))
	})
}

func TestTable5EngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 5 is slow")
	}
	atWorkers(t, func(t *testing.T, workers int) {
		harness.CheckGolden(t, "table5.txt", table5At(t, workers))
	})
}

func TestFigure8EngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 8 sweep is slow")
	}
	atWorkers(t, func(t *testing.T, workers int) {
		harness.CheckGolden(t, "figure8.txt", figure8At(t, workers))
	})
}

func TestCausalValidationEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("causal validation is slow")
	}
	atWorkers(t, func(t *testing.T, workers int) {
		harness.CheckGolden(t, "causal.txt", causalAt(t, workers).text)
	})
}
