package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vprof/internal/bugs"
	"vprof/internal/debuginfo"
	"vprof/internal/obs"
	"vprof/internal/schema"
	"vprof/internal/service"
	"vprof/internal/store"
)

// newObsServer builds a service with a fresh metrics registry, an optional
// resolver override and an optional wrapper around its handler, returning
// the pieces the observability tests poke at directly.
func newObsServer(t *testing.T, resolver service.Resolver, wrap func(http.Handler) http.Handler) (*service.Client, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Metrics: nil})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if resolver == nil {
		resolver = service.NewBugsResolver()
	}
	srv, err := service.New(service.Config{
		Store:    st,
		Resolver: resolver,
		Workers:  2,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return service.NewClient(hs.URL), hs, st
}

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// seriesValue extracts one sample's value from an exposition body, or -1
// when the series is absent.
func seriesValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	return -1
}

func TestMetricsExpositionMonotonic(t *testing.T) {
	_, hs, _ := newObsServer(t, nil, nil)

	// Drive the instrumented request path: two listings, then three more.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(hs.URL + "/v1/workloads")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	exp := scrape(t, hs.URL)
	series := `vprof_http_requests_total{route="/v1/workloads",code="2xx"}`
	if got := seriesValue(t, exp, series); got != 2 {
		t.Fatalf("%s = %v after 2 requests, want 2\n%s", series, got, exp)
	}
	// Exposition must carry the format scaffolding.
	for _, want := range []string{
		"# HELP vprof_http_requests_total",
		"# TYPE vprof_http_requests_total counter",
		"# TYPE vprof_http_request_duration_seconds histogram",
		`vprof_http_request_duration_seconds_bucket{route="/v1/workloads",le="+Inf"}`,
		"vprof_http_request_duration_seconds_count",
		"vprof_http_requests_in_flight 0",
		"vprof_pool_slots 2",
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("exposition missing %q:\n%s", want, exp)
		}
	}

	for i := 0; i < 3; i++ {
		resp, err := http.Get(hs.URL + "/v1/workloads")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := seriesValue(t, scrape(t, hs.URL), series); got != 5 {
		t.Fatalf("%s = %v after 5 requests, want 5 (monotonic)", series, got)
	}
}

func TestHealthzTriState(t *testing.T) {
	c, hs, st := newObsServer(t, nil, nil)

	getHealth := func() (int, service.Health) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h service.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	// Fresh server: writable and resolvable, but no baseline corpus yet —
	// degraded, still HTTP 200 so ingestion keeps flowing.
	code, h := getHealth()
	if code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("fresh healthz = %d %+v, want 200 degraded", code, h)
	}

	// One baseline push flips it to ok.
	b := bugs.ByID("b1").MustBuild()
	p, _ := b.ProfileNormal(0)
	if _, err := c.Push("b1", store.LabelNormal, "0", p); err != nil {
		t.Fatal(err)
	}
	code, h = getHealth()
	if code != http.StatusOK || h.Status != "ok" || h.BaselineWorkloads != 1 {
		t.Fatalf("healthz after baseline = %d %+v, want 200 ok", code, h)
	}

	// A broken store makes the service unavailable.
	st.Close()
	code, h = getHealth()
	if code != http.StatusServiceUnavailable || h.Status != "unavailable" {
		t.Fatalf("healthz after store close = %d %+v, want 503 unavailable", code, h)
	}
	if h.Checks["store_writable"] == "ok" {
		t.Fatalf("store_writable check still ok: %+v", h)
	}
}

// gateResolver signals when a diagnosis reaches Resolve and holds it there
// until released, so a test can cancel the request at a known point inside
// compute.
type gateResolver struct {
	service.Resolver
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateResolver() *gateResolver {
	return &gateResolver{
		Resolver: service.NewBugsResolver(),
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
	}
}

func (g *gateResolver) Resolve(workload string) (*debuginfo.Info, *schema.Schema, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.Resolver.Resolve(workload)
}

// TestDiagnoseCancellation: a diagnosis whose client disconnects while it
// computes ends with the canceled outcome, leaves nothing in the memo cache
// and gives its pool slot back. The gate opens only once the server has
// seen the disconnect, so the compute cannot finish first and succeed.
func TestDiagnoseCancellation(t *testing.T) {
	gate := newGateResolver()
	// serverCanceled closes when the first diagnose request's server-side
	// context is done.
	serverCanceled := make(chan struct{})
	var watch sync.Once
	c, hs, _ := newObsServer(t, gate, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/diagnose" {
				watch.Do(func() {
					go func() {
						<-r.Context().Done()
						close(serverCanceled)
					}()
				})
			}
			h.ServeHTTP(w, r)
		})
	})

	b := bugs.ByID("b1").MustBuild()
	np, _ := b.ProfileNormal(0)
	bp, _ := b.ProfileBuggy(0)
	if _, err := c.Push("b1", store.LabelNormal, "0", np); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("b1", store.LabelCandidate, "0", bp); err != nil {
		t.Fatal(err)
	}

	// Issue a diagnosis whose client disconnects while the server is mid
	// compute (parked in Resolve behind the gate).
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(service.DiagnoseRequest{Workload: "b1"})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/diagnose", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("canceled diagnose returned HTTP %d", resp.StatusCode)
		}
		done <- err
	}()

	<-gate.entered // the server is now inside compute, holding a pool slot
	cancel()       // client walks away
	select {
	case <-serverCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("the server did not see the client disconnect")
	}
	close(gate.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error = %v, want context.Canceled", err)
	}

	// The server must observe the abort: the canceled-outcome counter ticks
	// once the handler unwinds. Poll briefly — the handler finishes after
	// the client has already gone.
	canceled := `vprof_diagnose_requests_total{outcome="canceled"}`
	deadline := time.Now().Add(5 * time.Second)
	for {
		if seriesValue(t, scrape(t, hs.URL), canceled) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s sample after cancellation:\n%s", canceled, scrape(t, hs.URL))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The pool slot was released: a fresh diagnosis of the same workload
	// completes (the gate is open now) and was computed, not memoized —
	// canceled results must never enter the memo cache.
	resp, err := c.Diagnose(service.DiagnoseRequest{Workload: "b1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("diagnosis after cancellation served from cache")
	}
	exp := scrape(t, hs.URL)
	if got := seriesValue(t, exp, `vprof_diagnose_requests_total{outcome="computed"}`); got != 1 {
		t.Fatalf("computed outcome = %v, want 1\n%s", got, exp)
	}
	if got := seriesValue(t, exp, "vprof_pool_in_use"); got != 0 {
		t.Fatalf("pool_in_use = %v after requests drained, want 0", got)
	}
}

// TestDiagnoseContextCanceled exercises the embedded (non-HTTP) API: a
// pre-canceled context fails with the client-closed status, is never
// memoized, and leaves the server fully usable.
func TestDiagnoseContextCanceled(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := service.New(service.Config{Store: st, Resolver: service.NewBugsResolver(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := service.NewClient(hs.URL)
	b := bugs.ByID("b1").MustBuild()
	np, _ := b.ProfileNormal(0)
	bp, _ := b.ProfileBuggy(0)
	if _, err := c.Push("b1", store.LabelNormal, "0", np); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("b1", store.LabelCandidate, "0", bp); err != nil {
		t.Fatal(err)
	}

	ctx, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, status, err := srv.DiagnoseContext(ctx, service.DiagnoseRequest{Workload: "b1"}); err == nil {
		t.Fatal("pre-canceled DiagnoseContext succeeded")
	} else if status != service.StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d (err %v)", status, service.StatusClientClosedRequest, err)
	}
	// Same server, live context: the full diagnosis still works and is a
	// fresh computation (the canceled attempt was not memoized).
	resp, status, err := srv.DiagnoseContext(context.Background(), service.DiagnoseRequest{Workload: "b1"})
	if err != nil {
		t.Fatalf("diagnosis after canceled attempt: %d %v", status, err)
	}
	if resp.Cached {
		t.Fatal("diagnosis after canceled attempt claims to be cached")
	}
}

func TestClientErrorMapping(t *testing.T) {
	c, _, _ := newObsServer(t, nil, nil)

	// Invalid bundle: garbage bytes are rejected with a typed sentinel.
	_, err := c.PushBlob("b1", store.LabelNormal, "0", []byte("not a profile"))
	if !errors.Is(err, service.ErrInvalidBundle) {
		t.Fatalf("garbage push error = %v, want ErrInvalidBundle", err)
	}

	// Baseline missing: diagnosing an empty workload.
	_, err = c.Diagnose(service.DiagnoseRequest{Workload: "b1"})
	if !errors.Is(err, service.ErrBaselineMissing) {
		t.Fatalf("empty diagnose error = %v, want ErrBaselineMissing", err)
	}

	// Not found: unknown report id and unknown candidate run.
	_, err = c.Report("r-nope")
	if !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("missing report error = %v, want ErrNotFound", err)
	}
	b := bugs.ByID("b1").MustBuild()
	np, _ := b.ProfileNormal(0)
	if _, err := c.Push("b1", store.LabelNormal, "0", np); err != nil {
		t.Fatal(err)
	}
	_, err = c.Diagnose(service.DiagnoseRequest{Workload: "b1", Candidates: []string{"9"}})
	if !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("unknown candidate error = %v, want ErrNotFound", err)
	}
	// Sentinels are distinct: a not-found is not an invalid bundle.
	if errors.Is(err, service.ErrInvalidBundle) {
		t.Fatalf("unknown candidate error matched ErrInvalidBundle: %v", err)
	}
}
