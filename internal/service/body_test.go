package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"vprof/internal/bugs"
	"vprof/internal/profilefmt"
	"vprof/internal/profilefmt/profilefmttest"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/sim"
	"vprof/internal/store"
)

func newBodyServer(t *testing.T) *service.Server {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := service.New(service.Config{Store: st, Resolver: service.NewBugsResolver()})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestIngestBodyReads: the push handler's body read keeps its statuses for
// oversized, short and chunked bodies.
func TestIngestBodyReads(t *testing.T) {
	srv := newBodyServer(t)
	sim.CheckBodyReads(t, srv.Handler(), "/v1/profiles?workload=b3&label=normal&run=0", sim.SyntheticBlob(1))
}

// TestBatchBodyReads: a batch declared over the upload limit gets 413
// before any read, and so does one that sends more than the limit without
// declaring a length; short and chunked batches keep their statuses. Every
// batch refused as a whole counts once in the stats' Rejected.
func TestBatchBodyReads(t *testing.T) {
	srv := newBodyServer(t)
	batch, err := json.Marshal(service.BatchRequest{Profiles: []service.BatchItem{
		{Workload: "b3", Label: "normal", Run: "0", Blob: sim.SyntheticBlob(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rejected := srv.StatsSnapshot().Rejected
	requireRejected := func(what string, delta int64) {
		t.Helper()
		now := srv.StatsSnapshot().Rejected
		if now-rejected != delta {
			t.Errorf("%s: Rejected went up by %d, want %d", what, now-rejected, delta)
		}
		rejected = now
	}
	sim.CheckBodyReads(t, srv.Handler(), "/v1/profiles:batch", batch)
	requireRejected("over-limit, short and chunked batches", 2)

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	// A JSON prefix, then one byte more of base64 than the limit allows;
	// the reader's length is unknown, so the client sends it chunked.
	prefix := `{"profiles":[{"workload":"b3","label":"normal","run":"1","blob":"`
	for _, c := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"chunked batch over the limit", io.MultiReader(strings.NewReader(prefix),
			io.LimitReader(repeatByte('A'), service.MaxUploadBytes+1-int64(len(prefix)))), http.StatusRequestEntityTooLarge},
		{"undecodable batch", strings.NewReader(`{"profiles":`), http.StatusBadRequest},
		{"empty batch", strings.NewReader(`{"profiles":[]}`), http.StatusBadRequest},
	} {
		resp, err := http.Post(hs.URL+"/v1/profiles:batch", "application/json", c.body)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: HTTP %d (%s), want %d", c.name, resp.StatusCode, bytes.TrimSpace(msg), c.want)
		}
		requireRejected(c.name, 1)
	}
}

// TestIngestRefusesOverCapBundle: a bundle of minimum-size records one
// sample over profilefmt.MaxBundleSamples, 7 MiB and well under the upload
// limit, is refused with 400 and counted in Rejected.
func TestIngestRefusesOverCapBundle(t *testing.T) {
	srv := newBodyServer(t)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/profiles?workload=b3&label=normal&run=0",
		bytes.NewReader(profilefmttest.MinimalBundle(profilefmt.MaxBundleSamples+1))))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "sample count") {
		t.Errorf("over-cap bundle: HTTP %d (%s), want 400 naming the sample count", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if n := srv.StatsSnapshot().Rejected; n != 1 {
		t.Errorf("Rejected = %d, want 1", n)
	}
}

// repeatByte is an endless reader of one byte.
type repeatByte byte

func (r repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// pooling reports whether sync.Pool keeps what it is given: under the race
// detector it drops a random quarter of its Puts.
func pooling() bool {
	bi, ok := debug.ReadBuildInfo()
	return !ok || !slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestPushAllocation: once one push has filled the buffer pools, pushing
// b8's normal run 0 (17,816 samples, a 142 KiB bundle) through the ingest
// handler into a store allocates less than 1.15 times the decoded sample
// array. The sketch fold runs on after the ack, so the store is flushed,
// which waits for it, before the count is read. The body, the segment
// frame, the sketch frame and the fold's scratch are recycled; what is
// left is mostly the decoded profile and its sketch.
func TestPushAllocation(t *testing.T) {
	if !pooling() {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	built, err := bugs.ByID("b8").Build()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := built.ProfileNormal(0)
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := service.New(service.Config{Store: st, Resolver: service.NewBugsResolver()})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	push := func(run int) (blob []byte, allocated uint64) {
		q := *p
		q.TotalTicks += int64(run) // new bytes: each push stores a fresh blob
		blob, err := profilefmt.Marshal(&q)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost,
			fmt.Sprintf("/v1/profiles?workload=b8&label=normal&run=%d", run), bytes.NewReader(blob))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("push %d: HTTP %d: %s", run, rec.Code, rec.Body)
		}
		return blob, after.TotalAlloc - before.TotalAlloc
	}
	push(0)
	best := ^uint64(0)
	var size int
	for run := 1; run <= 5; run++ {
		blob, got := push(run)
		size, best = len(blob), min(best, got)
	}
	sampleBytes := len(p.Samples) * int(unsafe.Sizeof(sampler.Sample{}))
	if ratio := float64(best) / float64(sampleBytes); ratio >= 1.15 {
		t.Errorf("a push of a %d-byte bundle of %d sample bytes allocated %d bytes (%.2fx), want < 1.15x",
			size, sampleBytes, best, ratio)
	}
}
