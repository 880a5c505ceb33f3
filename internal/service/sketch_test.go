package service_test

import (
	"fmt"
	"reflect"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/service"
	"vprof/internal/store"
)

// sketchFixture pushes a b1 corpus (3 normals, 1 candidate) straight into a
// store and returns a server over it.
func sketchFixture(t *testing.T, cfg service.Config) (*service.Server, *store.Store, *bugs.Built) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	w := bugs.ByID("b1")
	if w == nil {
		t.Fatal("no b1 workload")
	}
	b := w.MustBuild()
	for i := 0; i < 3; i++ {
		p, _ := b.ProfileNormal(i)
		if _, _, err := st.Put("b1", store.LabelNormal, fmt.Sprint(i), p); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := b.ProfileBuggy(0)
	if _, _, err := st.Put("b1", store.LabelCandidate, "0", p); err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	cfg.Resolver = service.NewBugsResolver()
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, st, b
}

// TestSketchDiagnoseMatchesFull: a sketch-only diagnosis returns the
// identical rank table (costs, discounts, patterns) as the localized one,
// under a memo key of its own.
func TestSketchDiagnoseMatchesFull(t *testing.T) {
	srv, _, _ := sketchFixture(t, service.Config{})

	full, _, err := srv.Diagnose(service.DiagnoseRequest{Workload: "b1"})
	if err != nil {
		t.Fatal(err)
	}
	sk, _, err := srv.Diagnose(service.DiagnoseRequest{Workload: "b1", Sketches: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sk.Sketches || full.Sketches {
		t.Fatalf("mode flags: full.Sketches=%v sketch.Sketches=%v", full.Sketches, sk.Sketches)
	}
	if sk.Cached {
		t.Fatal("first sketch diagnosis claims to be cached: modes share a memo key")
	}
	if !reflect.DeepEqual(sk.Ranks, full.Ranks) {
		t.Fatalf("sketch ranks differ from full analysis:\nfull:   %+v\nsketch: %+v", full.Ranks, sk.Ranks)
	}
	// Same request again: served from the sketch-mode memo entry.
	again, _, err := srv.Diagnose(service.DiagnoseRequest{Workload: "b1", Sketches: true})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !again.Sketches {
		t.Fatalf("repeat sketch diagnosis: cached=%v sketches=%v", again.Cached, again.Sketches)
	}
}

// TestSketchDiagnoseIncremental is the acceptance check for the incremental
// path: with a warm baseline (corpus cached, sketches persisted), diagnosing
// a freshly pushed candidate run must not decode any stored profile blob —
// the store's decode-cache counters stay flat.
func TestSketchDiagnoseIncremental(t *testing.T) {
	srv, st, b := sketchFixture(t, service.Config{})

	// Warm the baseline.
	if _, _, err := srv.Diagnose(service.DiagnoseRequest{Workload: "b1", Sketches: true}); err != nil {
		t.Fatal(err)
	}

	// A new candidate run arrives.
	p, _ := b.ProfileBuggy(1)
	if _, _, err := st.Put("b1", store.LabelCandidate, "1", p); err != nil {
		t.Fatal(err)
	}

	before := st.CacheStats()
	resp, _, err := srv.Diagnose(service.DiagnoseRequest{Workload: "b1", Candidates: []string{"1"}, Sketches: true})
	if err != nil {
		t.Fatal(err)
	}
	after := st.CacheStats()
	if resp.Cached || !resp.Sketches {
		t.Fatalf("incremental diagnosis: cached=%v sketches=%v", resp.Cached, resp.Sketches)
	}
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("incremental sketch diagnosis decoded profile blobs: %+v -> %+v", before, after)
	}
	if sst := st.SketchStats(); sst.Rebuilds != 0 {
		t.Fatalf("incremental diagnosis rebuilt sketches from blobs: %+v", sst)
	}

	// The stats snapshot surfaces the sketch counters for the harness.
	stats := srv.StatsSnapshot()
	if stats.SketchCache.Indexed == 0 {
		t.Fatalf("stats do not surface sketch counters: %+v", stats.SketchCache)
	}
}

// TestDiagnoseDecodesOnlyTrail: a localized (non-sketch-mode) diagnosis of
// a freshly pushed candidate reads the baseline side from sketches and the
// cached corpus, and decodes exactly one blob — the candidate's own, the
// trail that block localization replays.
func TestDiagnoseDecodesOnlyTrail(t *testing.T) {
	srv, st, b := sketchFixture(t, service.Config{})
	if _, _, err := srv.Diagnose(service.DiagnoseRequest{Workload: "b1"}); err != nil {
		t.Fatal(err)
	}
	p, _ := b.ProfileBuggy(1)
	if _, _, err := st.Put("b1", store.LabelCandidate, "1", p); err != nil {
		t.Fatal(err)
	}

	before := st.CacheStats()
	resp, _, err := srv.Diagnose(service.DiagnoseRequest{Workload: "b1", Candidates: []string{"1"}})
	if err != nil {
		t.Fatal(err)
	}
	after := st.CacheStats()
	if resp.Cached || resp.Sketches {
		t.Fatalf("localized diagnosis: cached=%v sketches=%v", resp.Cached, resp.Sketches)
	}
	if reads := (after.Hits + after.Misses) - (before.Hits + before.Misses); reads != 1 {
		t.Fatalf("localized diagnosis read %d blobs, want 1 (the candidate): %+v -> %+v", reads, before, after)
	}
}
