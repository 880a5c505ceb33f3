package service_test

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"vprof/internal/obs"
	"vprof/internal/service"
	"vprof/internal/sim"
	"vprof/internal/store"
)

// deadEndpoint returns a URL nothing is listening on (the port was bound
// and released, so dialing it is refused immediately).
func deadEndpoint(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

// TestClientFailoverNoDuplicates: a push against a cluster client whose
// preferred front end is dead fails over to the live one; re-sending the
// same run (as a retrying agent would after a failover) dedups instead of
// double-ingesting.
func TestClientFailoverNoDuplicates(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := service.New(service.Config{Store: st, Resolver: service.NewBugsResolver(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	reg := obs.NewRegistry()
	client := service.NewClusterClient(deadEndpoint(t), hs.URL).Instrument(reg)
	blob := sim.SyntheticBlob(7)

	first, err := client.PushBlob("b1", store.LabelNormal, "0", blob)
	if err != nil {
		t.Fatalf("push via failover: %v", err)
	}
	if first.Dup {
		t.Fatal("first delivery reported dup")
	}
	// The agent's replay after the failover: same workload/label/run/bytes.
	second, err := client.PushBlob("b1", store.LabelNormal, "0", blob)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Dup || second.ID != first.ID {
		t.Fatalf("replayed push: dup=%v id=%s, want dup of %s", second.Dup, second.ID, first.ID)
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ingested != 1 || stats.Deduped != 1 {
		t.Fatalf("stats after failover replay: ingested=%d deduped=%d, want 1/1", stats.Ingested, stats.Deduped)
	}
	if got := reg.Counter("vprof_client_failovers_total", "").Value(); got < 1 {
		t.Fatalf("vprof_client_failovers_total = %v, want >= 1", got)
	}
	if entries := st.Baselines("b1"); len(entries) != 1 {
		t.Fatalf("store holds %d baseline runs after failover replay, want 1", len(entries))
	}
}

// unavailableBackend wraps a real store but refuses writes the way a
// below-quorum cluster router does.
type unavailableBackend struct {
	*store.Store
}

func (b *unavailableBackend) PutBlob(workload string, label store.Label, run string, blob []byte) (*store.Entry, bool, error) {
	return nil, false, fmt.Errorf("cluster: write quorum not reached: %w", store.ErrUnavailable)
}

// TestIngestUnavailableMapsTo503: a backend below write quorum turns pushes
// into retryable 503s (Retry-After set, CodeUnavailable body) — not 4xx
// rejections, and not counted as such.
func TestIngestUnavailableMapsTo503(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := service.New(service.Config{
		Backend:  &unavailableBackend{st},
		Resolver: service.NewBugsResolver(),
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	resp, err := http.Post(hs.URL+"/v1/profiles?workload=b1&label=normal&run=0",
		"application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unavailable backend: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// The typed client surfaces it as the retryable sentinel.
	client := service.NewClient(hs.URL)
	client.Retry.MaxAttempts = 2
	client.Retry.BaseDelay = 1 // don't sleep a real Retry-After in tests
	_, err = client.PushBlob("b1", store.LabelNormal, "0", sim.SyntheticBlob(1))
	if !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("client error = %v, want ErrOverloaded", err)
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 0 {
		t.Fatalf("unavailability counted as %d rejection(s)", stats.Rejected)
	}
}

// TestBatchIngest: one round trip carries many profiles; items are
// independent (a bad one fails its slot, not the batch), and replaying the
// whole batch dedups every item.
func TestBatchIngest(t *testing.T) {
	c, hs := newTestServer(t)

	items := []service.BatchItem{
		{Workload: "b1", Label: "normal", Run: "0", Blob: sim.SyntheticBlob(1)},
		{Workload: "b1", Label: "normal", Run: "1", Blob: sim.SyntheticBlob(2)},
		{Workload: "b1", Label: "candidate", Run: "0", Blob: sim.SyntheticBlob(3)},
		{Workload: "b1", Label: "wat", Run: "2", Blob: sim.SyntheticBlob(4)},    // bad label
		{Workload: "b1", Label: "normal", Run: "3", Blob: []byte("not a blob")}, // invalid bundle
	}
	results, err := c.PushBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(items) {
		t.Fatalf("got %d results for %d items", len(results), len(items))
	}
	for i := 0; i < 3; i++ {
		if results[i].Error != "" || results[i].ID == "" || results[i].Dup {
			t.Fatalf("item %d: %+v, want clean ingest", i, results[i])
		}
	}
	if results[3].Code != service.CodeBadRequest {
		t.Fatalf("bad-label item: code %q, want %q", results[3].Code, service.CodeBadRequest)
	}
	if results[4].Code != service.CodeInvalidBundle {
		t.Fatalf("garbage item: code %q, want %q", results[4].Code, service.CodeInvalidBundle)
	}

	// Replaying the batch (e.g. after a failover mid-response) is harmless.
	again, err := c.PushBatch(items[:3])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		if !r.Dup || r.ID != results[i].ID {
			t.Fatalf("replayed item %d: dup=%v id=%s, want dup of %s", i, r.Dup, r.ID, results[i].ID)
		}
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ingested != 3 || stats.Deduped != 3 || stats.Rejected != 2 {
		t.Fatalf("stats after batches: %+v, want ingested=3 deduped=3 rejected=2", stats)
	}

	// An empty batch is a client bug, not a no-op.
	if _, err := c.PushBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}

	// The endpoint speaks plain JSON for agents without the Go client.
	resp, err := http.Post(hs.URL+"/v1/profiles:batch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body batch: HTTP %d, want 400", resp.StatusCode)
	}
}
