package service_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/store"
)

func newTestServer(t *testing.T) (*service.Client, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := service.New(service.Config{
		Store:    st,
		Resolver: service.NewBugsResolver(),
		Workers:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return service.NewClient(hs.URL), hs
}

func TestIngestValidation(t *testing.T) {
	c, hs := newTestServer(t)

	// Malformed body: must be rejected, not crash the daemon.
	if _, err := c.PushBlob("b1", store.LabelNormal, "0", []byte("not a profile")); err == nil {
		t.Fatal("garbage blob accepted")
	}
	// Bad label.
	resp, err := http.Post(hs.URL+"/v1/profiles?workload=b1&label=wat&run=0", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad label: HTTP %d, want 400", resp.StatusCode)
	}
	// Missing run.
	resp, err = http.Post(hs.URL+"/v1/profiles?workload=b1&label=normal", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing run: HTTP %d, want 400", resp.StatusCode)
	}
	// A truncated but magic-prefixed bundle.
	p := &sampler.Profile{File: "x.vp", Hist: []int64{1, 2}}
	blob, err := profilefmt.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushBlob("b1", store.LabelNormal, "0", blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected < 3 || st.Ingested != 0 {
		t.Fatalf("stats after rejects = %+v", st)
	}
}

func TestServiceDiagnoseMatchesOffline(t *testing.T) {
	c, _ := newTestServer(t)
	w := bugs.ByID("b1")
	if w == nil {
		t.Fatal("no b1 workload")
	}
	b := w.MustBuild()

	// Push 3 normal + 2 candidate runs concurrently.
	const normals, candidates = 3, 2
	normalPs := make([]*sampler.Profile, normals)
	buggyPs := make([]*sampler.Profile, candidates)
	var wg sync.WaitGroup
	errs := make(chan error, normals+candidates)
	for i := 0; i < normals; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _ := b.ProfileNormal(i)
			normalPs[i] = p
			if _, err := c.Push("b1", store.LabelNormal, fmt.Sprint(i), p); err != nil {
				errs <- err
			}
		}(i)
	}
	for i := 0; i < candidates; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _ := b.ProfileBuggy(i)
			buggyPs[i] = p
			if _, err := c.Push("b1", store.LabelCandidate, fmt.Sprint(i), p); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	infos, err := c.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Workload != "b1" || infos[0].Normals != normals || infos[0].Candidates != candidates {
		t.Fatalf("workloads = %+v", infos)
	}

	resp, err := c.Diagnose(service.DiagnoseRequest{Workload: "b1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first diagnosis claims to be cached")
	}

	// The offline path over the identical profiles must agree byte for
	// byte on the rendered report.
	offline, err := analysis.Analyze(analysis.Input{
		Debug:  b.Prog.Debug,
		Schema: b.Schema,
		Normal: normalPs,
		Buggy:  buggyPs,
	}, analysis.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if want := offline.Render(10); resp.Render != want {
		t.Fatalf("service render differs from offline render.\nservice:\n%s\noffline:\n%s", resp.Render, want)
	}
	if got, want := resp.RootRank(w.RootFunc), offline.Rank(w.RootFunc); got != want || got == 0 {
		t.Fatalf("root rank: service %d, offline %d", got, want)
	}

	// Second identical diagnosis: memoized.
	resp2, err := c.Diagnose(service.DiagnoseRequest{Workload: "b1"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || resp2.MemoHits < 1 {
		t.Fatalf("second diagnosis not cached: %+v", resp2)
	}
	if resp2.Render != resp.Render || resp2.ReportID != resp.ReportID {
		t.Fatal("cached diagnosis differs from original")
	}

	// The stored report is fetchable by id.
	rep, err := c.Report(resp.ReportID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render != resp.Render {
		t.Fatal("report by id differs from diagnosis")
	}

	// A new candidate push invalidates the memo key.
	p, _ := b.ProfileBuggy(candidates)
	if _, err := c.Push("b1", store.LabelCandidate, fmt.Sprint(candidates), p); err != nil {
		t.Fatal(err)
	}
	resp3, err := c.Diagnose(service.DiagnoseRequest{Workload: "b1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Cached {
		t.Fatal("diagnosis after new push served from stale cache")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Diagnoses != 2 || st.DiagnoseCacheHits != 1 || st.Ingested != normals+candidates+1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCheckEndpoint(t *testing.T) {
	c, hs := newTestServer(t)

	// A registered workload, resolved to its buggy source. b9's quadratic
	// scan is one of the statically caught patterns.
	resp, err := c.Check(service.CheckRequest{Workload: "b9"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExitCode != 1 || len(resp.Findings) == 0 {
		t.Fatalf("b9 check = exit %d, %d findings; want flagged", resp.ExitCode, len(resp.Findings))
	}
	found := false
	for _, f := range resp.Findings {
		if f.Rule == "quadratic-nest" {
			found = true
		}
	}
	if !found {
		t.Errorf("b9 findings missing quadratic-nest: %+v", resp.Findings)
	}
	if len(resp.Costs) == 0 {
		t.Error("no cost bounds returned")
	}

	// Inline source: clean program, exit 0, named by the request path.
	resp, err = c.Check(service.CheckRequest{
		Source: "func main() { work(5); return 0; }",
		Path:   "tiny.vp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExitCode != 0 || len(resp.Findings) != 0 || resp.Path != "tiny.vp" {
		t.Fatalf("inline check = %+v, want clean", resp)
	}
	if resp.Costs["main"] == "" {
		t.Errorf("inline check missing main's cost bound: %+v", resp.Costs)
	}

	// Error paths: unknown workload, source that does not compile, neither.
	if _, err := c.Check(service.CheckRequest{Workload: "nope"}); !errors.Is(err, service.ErrNotFound) {
		t.Errorf("unknown workload: err = %v, want ErrNotFound", err)
	}
	if _, err := c.Check(service.CheckRequest{Source: "func {"}); err == nil {
		t.Error("uncompilable source accepted")
	}
	if _, err := c.Check(service.CheckRequest{}); err == nil {
		t.Error("empty check request accepted")
	}

	// Malformed JSON body.
	hresp, err := http.Post(hs.URL+"/v1/check", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d, want 400", hresp.StatusCode)
	}
}

func TestDiagnoseErrors(t *testing.T) {
	c, _ := newTestServer(t)
	// No baselines at all.
	if _, err := c.Diagnose(service.DiagnoseRequest{Workload: "b1"}); err == nil {
		t.Fatal("diagnosis with empty store succeeded")
	}
	// Baseline but no candidates.
	b := bugs.ByID("b2").MustBuild()
	p, _ := b.ProfileNormal(0)
	if _, err := c.Push("b2", store.LabelNormal, "0", p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Diagnose(service.DiagnoseRequest{Workload: "b2"}); err == nil {
		t.Fatal("diagnosis without candidates succeeded")
	}
	// Named candidate run that does not exist.
	bp, _ := b.ProfileBuggy(0)
	if _, err := c.Push("b2", store.LabelCandidate, "0", bp); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Diagnose(service.DiagnoseRequest{Workload: "b2", Candidates: []string{"7"}}); err == nil {
		t.Fatal("diagnosis of unknown candidate run succeeded")
	}
	// Workload the resolver does not know.
	if _, err := c.Push("not-a-bug", store.LabelNormal, "0", p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("not-a-bug", store.LabelCandidate, "0", bp); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Diagnose(service.DiagnoseRequest{Workload: "not-a-bug"}); err == nil {
		t.Fatal("diagnosis of unresolvable workload succeeded")
	}
	// Missing report id.
	if _, err := c.Report("r-nope"); err == nil {
		t.Fatal("missing report served")
	}
}

// TestMemoBounded: the diagnosis memo keeps its 64 most recent results
// however many distinct diagnoses pass through it. GET /v1/report reads
// the memo, so the oldest report answers 404 and repeating its query
// computes it again.
func TestMemoBounded(t *testing.T) {
	const bound = 64
	c, _ := newTestServer(t)
	b := bugs.ByID("b1").MustBuild()
	normal, _ := b.ProfileNormal(0)
	buggy, _ := b.ProfileBuggy(0)
	if _, err := c.Push("b1", store.LabelNormal, "0", normal); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("b1", store.LabelCandidate, "0", buggy); err != nil {
		t.Fatal(err)
	}
	// Each row bound is a distinct memo key.
	diagnose := func(top int) *service.DiagnoseResponse {
		t.Helper()
		resp, err := c.Diagnose(service.DiagnoseRequest{Workload: "b1", Top: top, Sketches: true})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ids := make([]string, bound+1)
	for i := range ids {
		if resp := diagnose(i + 1); resp.Cached {
			t.Fatalf("diagnosis %d served from the memo", i+1)
		} else {
			ids[i] = resp.ReportID
		}
	}
	if _, err := c.Report(ids[0]); !errors.Is(err, service.ErrNotFound) {
		t.Errorf("oldest report after %d newer diagnoses: err = %v, want ErrNotFound", bound, err)
	}
	for _, id := range ids[1:] {
		if _, err := c.Report(id); err != nil {
			t.Errorf("report %s: %v", id, err)
		}
	}
	if !diagnose(bound + 1).Cached {
		t.Error("the newest diagnosis was not served from the memo")
	}
	if diagnose(1).Cached {
		t.Error("an evicted diagnosis was served from the memo")
	}
}
