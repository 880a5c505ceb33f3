package service_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/causal"
	"vprof/internal/compiler"
	"vprof/internal/obs"
	"vprof/internal/service"
	"vprof/internal/store"
	"vprof/internal/vm"
)

func TestCausalEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := service.New(service.Config{
		Store:    st,
		Resolver: service.NewBugsResolver(),
		Workers:  3,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := service.NewClient(hs.URL)

	// b3 is a small workload whose root cause tops the causal ranking.
	w := bugs.ByID("b3")
	resp, err := c.Causal(service.CausalRequest{Workload: "b3", Speedups: []float64{50, 95}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first sweep claims to be cached")
	}
	if resp.Granularity != "func" || len(resp.Curves) == 0 || resp.Render == "" {
		t.Fatalf("causal response = %+v", resp)
	}
	if got := resp.RootRank(w.RootFunc); got != 1 {
		t.Fatalf("b3 root rank = %d, want 1", got)
	}

	// The offline engine over the identical inputs must agree exactly.
	b := w.MustBuild()
	offline, err := causal.Run(context.Background(), b.Prog, w.BuggyConfig(0), causal.Options{
		Speedups: []float64{0.50, 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := causal.Render(offline, 10); resp.Render != want {
		t.Fatalf("service render differs from offline render.\nservice:\n%s\noffline:\n%s", resp.Render, want)
	}
	if resp.Experiments != offline.Experiments || resp.Baseline != offline.BaselineWall {
		t.Fatalf("service sweep diverged: %d experiments/%d baseline, offline %d/%d",
			resp.Experiments, resp.Baseline, offline.Experiments, offline.BaselineWall)
	}

	// Second identical request: memoized, and the experiment counter does
	// not advance.
	exp := scrape(t, hs.URL)
	before := seriesValue(t, exp, "vprof_causal_experiments_total")
	if before != float64(offline.Experiments) {
		t.Fatalf("vprof_causal_experiments_total = %v, want %d", before, offline.Experiments)
	}
	resp2, err := c.Causal(service.CausalRequest{Workload: "b3", Speedups: []float64{50, 95}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || resp2.Render != resp.Render || resp2.ReportID != resp.ReportID {
		t.Fatalf("second sweep not a faithful cache hit: %+v", resp2)
	}
	exp = scrape(t, hs.URL)
	if after := seriesValue(t, exp, "vprof_causal_experiments_total"); after != before {
		t.Fatalf("experiment counter advanced on a memo hit: %v -> %v", before, after)
	}
	if hits := seriesValue(t, exp, "vprof_causal_memo_hits_total"); hits != 1 {
		t.Fatalf("vprof_causal_memo_hits_total = %v, want 1", hits)
	}
	if v := seriesValue(t, exp, `vprof_causal_requests_total{outcome="computed"}`); v != 1 {
		t.Fatalf("computed outcome count = %v, want 1", v)
	}
	if v := seriesValue(t, exp, `vprof_causal_requests_total{outcome="cached"}`); v != 1 {
		t.Fatalf("cached outcome count = %v, want 1", v)
	}

	// A different option set is a different memo key.
	resp3, err := c.Causal(service.CausalRequest{Workload: "b3", Speedups: []float64{50, 95}, Granularity: "block"})
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Cached || resp3.Granularity != "block" {
		t.Fatalf("block sweep = %+v, want freshly computed", resp3)
	}

	// Error paths: unknown workload, bad speedup, bad granularity, bad body.
	if _, err := c.Causal(service.CausalRequest{Workload: "nope"}); !errors.Is(err, service.ErrNotFound) {
		t.Errorf("unknown workload: err = %v, want ErrNotFound", err)
	}
	if _, err := c.Causal(service.CausalRequest{Workload: "b3", Speedups: []float64{120}}); err == nil {
		t.Error("speedup 120%% accepted")
	}
	if _, err := c.Causal(service.CausalRequest{Workload: "b3", Granularity: "line"}); err == nil {
		t.Error("granularity line accepted")
	}
	if _, err := c.Causal(service.CausalRequest{}); err == nil {
		t.Error("empty request accepted")
	}
	hresp, err := http.Post(hs.URL+"/v1/causal", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d, want 400", hresp.StatusCode)
	}
}

// cancelResolver cancels a request's context when the sweep asks for its
// program: after admission and the pool slot, before any experiment runs.
type cancelResolver struct {
	service.Resolver
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelResolver) Runnable(workload string) (*compiler.Program, vm.Config, error) {
	c.once.Do(c.cancel)
	return c.Resolver.Runnable(workload)
}

func TestCausalCancellation(t *testing.T) {
	// A long-grinding program served by a program resolver; cancellation
	// must land inside the request and abort with 499, without memoizing.
	// The resolver cancels once the request holds its pool slot, so the
	// sweep cannot finish before the cancel, however the goroutines are
	// scheduled.
	dir := t.TempDir()
	src := `
func grind() { var i = 0; while (i < 2000) { work(1000); i = i + 1; } return 0; }
func main() { grind(); }`
	path := filepath.Join(dir, "grind.vp")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	resolver, err := service.NewProgramResolver([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := service.New(service.Config{Store: st, Resolver: &cancelResolver{Resolver: resolver, cancel: cancel}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	_, status, err := srv.CausalContext(ctx, service.CausalRequest{Workload: "grind"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel: err = %v, want context.Canceled", err)
	}
	if status != service.StatusClientClosedRequest {
		t.Fatalf("mid-sweep cancel: status = %d, want %d", status, service.StatusClientClosedRequest)
	}

	// The canceled sweep must not have been memoized: a fresh request
	// computes (and succeeds).
	resp, _, err := srv.Causal(service.CausalRequest{Workload: "grind", Speedups: []float64{50}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("sweep after cancellation served from cache")
	}
	if len(resp.Curves) == 0 || resp.Curves[0].Name != "grind" {
		t.Fatalf("curves = %+v, want grind ranked", resp.Curves)
	}
}
