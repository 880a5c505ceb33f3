package service_test

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/store"
)

// newServerWithAnalysisPool is newTestServer with an explicit per-diagnosis
// analysis pool size (Params.Workers), for the workers=1 vs workers=8 determinism comparison.
func newServerWithAnalysisPool(t *testing.T, workers int) *service.Client {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	params := analysis.DefaultParams()
	params.Workers = workers
	srv, err := service.New(service.Config{
		Store:    st,
		Resolver: service.NewBugsResolver(),
		Workers:  3,
		Params:   &params,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return service.NewClient(hs.URL)
}

// b1Profiles generates a fixed corpus of normal and candidate profiles once,
// so both servers under comparison see byte-identical inputs.
func b1Profiles(t *testing.T, normals, candidates int) ([]*sampler.Profile, []*sampler.Profile) {
	t.Helper()
	w := bugs.ByID("b1")
	if w == nil {
		t.Fatal("no b1 workload")
	}
	b := w.MustBuild()
	ns := make([]*sampler.Profile, normals)
	cs := make([]*sampler.Profile, candidates)
	for i := range ns {
		ns[i], _ = b.ProfileNormal(i)
	}
	for i := range cs {
		cs[i], _ = b.ProfileBuggy(i)
	}
	return ns, cs
}

func pushAll(t *testing.T, c *service.Client, ns, cs []*sampler.Profile) {
	t.Helper()
	for i, p := range ns {
		if _, err := c.Push("b1", store.LabelNormal, fmt.Sprint(i), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range cs {
		if _, err := c.Push("b1", store.LabelCandidate, fmt.Sprint(i), p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceDiagnoseDeterministicAcrossWorkers feeds the same profile corpus
// to a sequential-analysis server and an 8-way-parallel one and requires the
// /v1/diagnose responses — rendered report and structured ranking — to be
// identical.
func TestServiceDiagnoseDeterministicAcrossWorkers(t *testing.T) {
	ns, cs := b1Profiles(t, 3, 2)
	seqClient := newServerWithAnalysisPool(t, 1)
	parClient := newServerWithAnalysisPool(t, 8)
	pushAll(t, seqClient, ns, cs)
	pushAll(t, parClient, ns, cs)

	req := service.DiagnoseRequest{Workload: "b1"}
	seq, err := seqClient.Diagnose(req)
	if err != nil {
		t.Fatal(err)
	}
	par, err := parClient.Diagnose(req)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render != par.Render {
		t.Errorf("rendered diagnosis differs between analysis workers 1 and 8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq.Render, par.Render)
	}
	if !reflect.DeepEqual(seq.Ranks, par.Ranks) {
		t.Errorf("rank entries differ:\nworkers=1: %+v\nworkers=8: %+v", seq.Ranks, par.Ranks)
	}
	if !reflect.DeepEqual(seq.Baselines, par.Baselines) || !reflect.DeepEqual(seq.Candidates, par.Candidates) {
		t.Errorf("entry id sets differ: %+v/%+v vs %+v/%+v", seq.Baselines, seq.Candidates, par.Baselines, par.Candidates)
	}
}

// TestServiceConcurrentDiagnose hammers one store-backed server with parallel
// Diagnose requests (each running the parallel discounter underneath) and
// checks every reply is identical. Run under -race this exercises the
// bounded diagnosis semaphore, the memo cache, and the shared-schema Lookup
// path concurrently.
func TestServiceConcurrentDiagnose(t *testing.T) {
	ns, cs := b1Profiles(t, 3, 2)
	c := newServerWithAnalysisPool(t, 4)
	pushAll(t, c, ns, cs)

	// Fire all requests concurrently — no warm-up, so the first arrivals for
	// each memo key race on the actual compute path (inflight dedup, bounded
	// semaphore, parallel discounter). Ranks are truncated to Top, so group
	// responses by Top and require identity within each group.
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	got := make([]*service.DiagnoseResponse, goroutines)
	tops := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		// Alternate Top so the requests hit two distinct memo keys.
		tops[g] = 0
		if g%2 == 1 {
			tops[g] = 7
		}
		go func(g int) {
			defer wg.Done()
			resp, err := c.Diagnose(service.DiagnoseRequest{Workload: "b1", Top: tops[g]})
			if err != nil {
				errs <- err
				return
			}
			got[g] = resp
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	first := map[int]*service.DiagnoseResponse{}
	for g, resp := range got {
		ref, ok := first[tops[g]]
		if !ok {
			first[tops[g]] = resp
			continue
		}
		if resp.Render != ref.Render || !reflect.DeepEqual(resp.Ranks, ref.Ranks) {
			t.Errorf("goroutine %d (top=%d): diagnosis diverged from its group", g, tops[g])
		}
	}
}
