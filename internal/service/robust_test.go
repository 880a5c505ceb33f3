package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/debuginfo"
	"vprof/internal/faultfs"
	"vprof/internal/obs"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/service"
	"vprof/internal/sim"
	"vprof/internal/store"
)

// newRobustServer builds a service with full access to the *service.Server
// (the obs_test helper hides it), so robustness tests can drive Shutdown.
func newRobustServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	if cfg.Resolver == nil {
		cfg.Resolver = service.NewBugsResolver()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs, st
}

// seedB1 pushes one baseline and one candidate of the b1 registry bug.
func seedB1(t *testing.T, c *service.Client) {
	t.Helper()
	b := bugs.ByID("b1").MustBuild()
	np, _ := b.ProfileNormal(0)
	bp, _ := b.ProfileBuggy(0)
	if _, err := c.Push("b1", store.LabelNormal, "0", np); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("b1", store.LabelCandidate, "0", bp); err != nil {
		t.Fatal(err)
	}
}

// rawDiagnose posts a diagnose request without any client-side retrying,
// returning the raw response for header/status assertions.
func rawDiagnose(t *testing.T, base string, req service.DiagnoseRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestOverloadShedsAndClientRetries saturates a Workers=1, MaxQueue=1
// server: the next request must be shed with 429 + Retry-After, and a
// retrying client must ride the backoff through the congestion and
// eventually succeed once the gate opens.
func TestOverloadShedsAndClientRetries(t *testing.T) {
	gate := newGateResolver()
	srv, hs, _ := newRobustServer(t, service.Config{
		Resolver: gate,
		Workers:  1,
		MaxQueue: 1,
	})
	_ = srv
	plain := service.NewClient(hs.URL)
	seedB1(t, plain)

	// Distinct Top values make distinct memo keys, so the requests cannot
	// coalesce on the in-flight dedup path.
	first := make(chan error, 1)
	go func() {
		_, err := plain.Diagnose(service.DiagnoseRequest{Workload: "b1", Top: 3})
		first <- err
	}()
	<-gate.entered // holds the only worker slot, parked in Resolve

	queued := make(chan error, 1)
	go func() {
		_, err := plain.Diagnose(service.DiagnoseRequest{Workload: "b1", Top: 4})
		queued <- err
	}()
	// Wait until the second diagnose occupies the queue slot.
	waitSeries(t, hs.URL, "vprof_pool_queue_depth", 1)

	// Queue full: a third distinct diagnose must be shed, not queued.
	resp := rawDiagnose(t, hs.URL, service.DiagnoseRequest{Workload: "b1", Top: 5})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated diagnose = HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response has no Retry-After header")
	}
	resp.Body.Close()
	if got := seriesValue(t, scrape(t, hs.URL), "vprof_shed_total"); got < 1 {
		t.Fatalf("vprof_shed_total = %v, want >= 1", got)
	}

	// A retrying client keeps knocking; open the gate after its first shed
	// and it must get through.
	clientReg := obs.NewRegistry()
	retrying := service.NewClient(hs.URL).Instrument(clientReg)
	retrying.Retry = service.RetryPolicy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	retried := make(chan error, 1)
	go func() {
		_, err := retrying.Diagnose(service.DiagnoseRequest{Workload: "b1", Top: 6})
		retried <- err
	}()
	waitRegistrySeries(t, clientReg, "vprof_client_retries_total", 1)
	close(gate.release)

	for name, ch := range map[string]chan error{"first": first, "queued": queued, "retried": retried} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s diagnose failed: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s diagnose never finished", name)
		}
	}
	var buf bytes.Buffer
	clientReg.WritePrometheus(&buf)
	if got := seriesValue(t, buf.String(), "vprof_client_throttled_total"); got < 1 {
		t.Fatalf("vprof_client_throttled_total = %v, want >= 1\n%s", got, buf.String())
	}
}

// waitSeries polls /metrics until series reaches at least want (bounded).
func waitSeries(t *testing.T, base, series string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if seriesValue(t, scrape(t, base), series) >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %v:\n%s", series, want, scrape(t, base))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitRegistrySeries is waitSeries against an unserved registry.
func waitRegistrySeries(t *testing.T, reg *obs.Registry, series string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		if seriesValue(t, buf.String(), series) >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %v:\n%s", series, want, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownDrainsInFlight: Shutdown must reject new work with 503 +
// Retry-After, wait for the in-flight diagnosis to finish, and only then
// return — the SIGTERM discipline `vprof serve` wires up.
func TestShutdownDrainsInFlight(t *testing.T) {
	gate := newGateResolver()
	srv, hs, _ := newRobustServer(t, service.Config{Resolver: gate, Workers: 2})
	c := service.NewClient(hs.URL)
	seedB1(t, c)

	inflight := make(chan error, 1)
	go func() {
		resp, err := c.Diagnose(service.DiagnoseRequest{Workload: "b1"})
		if err == nil && resp.Render == "" {
			err = errors.New("empty render")
		}
		inflight <- err
	}()
	<-gate.entered

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- srv.Shutdown(ctx)
	}()

	// New work is refused while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := rawDiagnose(t, hs.URL, service.DiagnoseRequest{Workload: "b1", Top: 4})
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("draining 503 has no Retry-After header")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server kept accepting work while draining (HTTP %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Shutdown must still be waiting on the parked diagnosis.
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned before the in-flight diagnosis finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate.release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight diagnosis was not drained cleanly: %v", err)
	}
	select {
	case err := <-shutdown:
		if err != nil {
			t.Fatalf("Shutdown = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned after the drain completed")
	}
}

// panicOnceResolver panics on its first Resolve and then behaves.
type panicOnceResolver struct {
	service.Resolver
	fired atomic.Bool
}

func (p *panicOnceResolver) Resolve(workload string) (*debuginfo.Info, *schema.Schema, error) {
	if p.fired.CompareAndSwap(false, true) {
		panic("resolver exploded")
	}
	return p.Resolver.Resolve(workload)
}

// TestPanicRecoveryMiddleware: a handler panic costs one 500 and a
// vprof_panics_total tick — not the process — and the poisoned in-flight
// diagnosis entry is cleaned up so the retry computes normally.
func TestPanicRecoveryMiddleware(t *testing.T) {
	_, hs, _ := newRobustServer(t, service.Config{
		Resolver: &panicOnceResolver{Resolver: service.NewBugsResolver()},
	})
	c := service.NewClient(hs.URL)
	seedB1(t, c)

	resp := rawDiagnose(t, hs.URL, service.DiagnoseRequest{Workload: "b1"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking diagnose = HTTP %d, want 500", resp.StatusCode)
	}
	if got := seriesValue(t, scrape(t, hs.URL), "vprof_panics_total"); got != 1 {
		t.Fatalf("vprof_panics_total = %v, want 1", got)
	}

	// Identical request (same memo key): must compute, not hang on the dead
	// attempt's in-flight entry.
	out, err := c.Diagnose(service.DiagnoseRequest{Workload: "b1"})
	if err != nil {
		t.Fatalf("diagnose after panic: %v", err)
	}
	if out.Cached || out.Render == "" {
		t.Fatalf("diagnose after panic: cached=%v render=%d bytes", out.Cached, len(out.Render))
	}
}

// TestRequestTimeout: with RequestTimeout set, a request stuck waiting for
// a worker slot times out as 504/timeout instead of queueing forever.
func TestRequestTimeout(t *testing.T) {
	gate := newGateResolver()
	_, hs, _ := newRobustServer(t, service.Config{
		Resolver:       gate,
		Workers:        1,
		RequestTimeout: 100 * time.Millisecond,
	})
	c := service.NewClient(hs.URL)
	seedB1(t, c)

	blocked := make(chan struct{})
	go func() {
		resp := rawDiagnose(t, hs.URL, service.DiagnoseRequest{Workload: "b1", Top: 3})
		resp.Body.Close()
		close(blocked)
	}()
	<-gate.entered

	// The slot is held; this one waits in the queue until its deadline.
	resp := rawDiagnose(t, hs.URL, service.DiagnoseRequest{Workload: "b1", Top: 4})
	var body struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || body.Code != service.CodeTimeout {
		t.Fatalf("queued-past-deadline diagnose = HTTP %d code %q, want 504 %q",
			resp.StatusCode, body.Code, service.CodeTimeout)
	}
	close(gate.release)
	<-blocked
}

// TestClientExpiredContextDoesNotDial: the already-expired-context
// satellite — Push and Diagnose must return ctx.Err() without sending
// anything.
func TestClientExpiredContextDoesNotDial(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(hs.Close)
	c := service.NewClient(hs.URL)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.PushBlobContext(ctx, "w", store.LabelNormal, "0", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired-ctx push = %v, want context.Canceled", err)
	}
	if _, err := c.DiagnoseContext(ctx, service.DiagnoseRequest{Workload: "w"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired-ctx diagnose = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := c.PushBlobContext(dctx, "w", store.LabelNormal, "0", sim.SyntheticBlob(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("past-deadline push = %v, want context.DeadlineExceeded", err)
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("expired-context requests reached the server %d time(s)", got)
	}
}

// TestClientRetriesHonorRetryAfter: a flaky endpoint that sheds twice with
// Retry-After and then succeeds must cost exactly two retries.
func TestClientRetriesHonorRetryAfter(t *testing.T) {
	var calls atomic.Int64
	started := time.Now()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"error":"busy","code":%q}`, service.CodeOverloaded)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode([]store.WorkloadInfo{{Workload: "w"}})
	}))
	t.Cleanup(hs.Close)

	reg := obs.NewRegistry()
	c := service.NewClient(hs.URL).Instrument(reg)
	c.Retry = service.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	wls, err := c.Workloads()
	if err != nil || len(wls) != 1 {
		t.Fatalf("retried workloads = %v, %v", wls, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if elapsed := time.Since(started); elapsed > 5*time.Second {
		t.Fatalf("retries took %v", elapsed)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	exp := buf.String()
	if got := seriesValue(t, exp, "vprof_client_retries_total"); got != 2 {
		t.Fatalf("vprof_client_retries_total = %v, want 2\n%s", got, exp)
	}
	if got := seriesValue(t, exp, "vprof_client_throttled_total"); got != 2 {
		t.Fatalf("vprof_client_throttled_total = %v, want 2\n%s", got, exp)
	}

	// Exhausting the budget maps to ErrOverloaded.
	calls.Store(-1000)
	c.Retry = service.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	if _, err := c.Workloads(); !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("exhausted retries = %v, want ErrOverloaded", err)
	}
	var buf2 bytes.Buffer
	reg.WritePrometheus(&buf2)
	if got := seriesValue(t, buf2.String(), "vprof_client_giveups_total"); got != 1 {
		t.Fatalf("vprof_client_giveups_total = %v, want 1", got)
	}
}

// TestCrashRecoveryDiagnosisByteForByte is the tentpole's end-to-end
// invariant: ingest crashes mid-stream, the store recovers, the remaining
// profiles are re-pushed (idempotent), and the service's diagnosis is
// byte-for-byte identical to the offline pipeline over the same profiles.
func TestCrashRecoveryDiagnosisByteForByte(t *testing.T) {
	b := bugs.ByID("b1").MustBuild()
	type push struct {
		label store.Label
		run   string
		p     *sampler.Profile
	}
	var pushes []push
	var normals, buggies []*sampler.Profile
	for i := 0; i < 3; i++ {
		p, _ := b.ProfileNormal(i)
		normals = append(normals, p)
		pushes = append(pushes, push{store.LabelNormal, fmt.Sprint(i), p})
	}
	bp, _ := b.ProfileBuggy(0)
	buggies = append(buggies, bp)
	pushes = append(pushes, push{store.LabelCandidate, "0", bp})

	// The offline pipeline's render over the exact same profiles.
	resolver := service.NewBugsResolver()
	dbg, sch, err := resolver.Resolve("b1")
	if err != nil {
		t.Fatal(err)
	}
	params := analysis.DefaultParams()
	report, err := analysis.AnalyzeContext(context.Background(), analysis.Input{
		Debug: dbg, Schema: sch, Normal: normals, Buggy: buggies,
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	offline := report.Render(10)

	// Size the crash matrix sample from a dry run.
	dry := faultfs.NewInjector(nil)
	s, err := store.Open(t.TempDir(), store.Options{FS: dry})
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range pushes {
		if _, _, err := s.Put("b1", ps.label, ps.run, ps.p); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	total := dry.Mutations()

	for _, n := range []int{2, total / 2, total - 1} {
		t.Run(fmt.Sprintf("crash-at-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInjector(nil)
			inj.CrashAt(n)
			inj.SetTorn(n%2 == 1)
			if s, err := store.Open(dir, store.Options{FS: inj}); err == nil {
				for _, ps := range pushes {
					if _, _, err := s.Put("b1", ps.label, ps.run, ps.p); err != nil {
						break
					}
				}
				s.Close()
			}

			// Restart over the recovered directory and re-push everything:
			// survivors dedup, casualties are re-ingested.
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer st.Close()
			srv, err := service.New(service.Config{Store: st, Resolver: resolver})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()
			c := service.NewClient(hs.URL)
			for _, ps := range pushes {
				if _, err := c.Push("b1", ps.label, ps.run, ps.p); err != nil {
					t.Fatalf("re-push after recovery: %v", err)
				}
			}
			resp, err := c.Diagnose(service.DiagnoseRequest{Workload: "b1"})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Render != offline {
				t.Fatalf("crash at %d: service render diverged from offline pipeline\n--- offline ---\n%s\n--- service ---\n%s",
					n, offline, resp.Render)
			}
		})
	}
}
