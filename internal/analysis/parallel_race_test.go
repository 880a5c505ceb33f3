package analysis_test

import (
	"sync"
	"testing"

	"vprof/internal/analysis"
)

// TestConcurrentAnalyzeSharedInput runs several parallel-discounter analyses
// over one shared Input — same Schema pointer, same profiles — from multiple
// goroutines at once. Under -race this exercises the lazy Schema.Lookup
// index, the shared trail the localization walks, and the worker-pool
// fan-out; all reports must render identically.
func TestConcurrentAnalyzeSharedInput(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	in := analysis.Input{
		Debug:  tb.prog.Debug,
		Schema: tb.sch,
		Normal: tb.profileRuns(t, 3, 40),
		Buggy:  tb.profileRuns(t, 3, 90),
	}
	p := analysis.DefaultParams()
	p.Workers = 4

	const goroutines = 6
	renders := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rep, err := analysis.Analyze(in, p)
			if err != nil {
				errs[g] = err
				return
			}
			renders[g] = rep.Render(0)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	// Sequential reference with Workers=1 — concurrency and pool size must
	// not change a single byte.
	seq := p
	seq.Workers = 1
	ref, err := analysis.Analyze(in, seq)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Render(0)
	for g, got := range renders {
		if got != want {
			t.Errorf("goroutine %d render differs from sequential reference:\n--- sequential ---\n%s\n--- goroutine %d ---\n%s", g, want, g, got)
		}
	}
}
