package service_test

import (
	"fmt"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/store"
)

// BenchmarkIncrementalDiagnose measures the service-side latency of
// diagnosing one newly pushed candidate run against a warm 16-run baseline
// corpus, localized (full) vs sketch-only. Both read persisted per-variable
// sketches and reuse the cached corpus, touching only the new run; the full
// diagnosis also decodes the new run's blob (the decode cache is
// deliberately smaller than the corpus, as it would be in production) to
// localize abnormal samples to blocks. Each iteration pushes a fresh
// candidate (timer stopped) so every diagnosis misses the memo and does
// real work. Run with -benchtime Nx, N < 64: the pool of distinct candidate
// profiles is 64, and recycled blob IDs would start hitting the memo.
func BenchmarkIncrementalDiagnose(b *testing.B) {
	w := bugs.ByID("b1")
	if w == nil {
		b.Fatal("no b1 workload")
	}
	built := w.MustBuild()
	const numBaselines = 16
	normals := make([]*sampler.Profile, numBaselines)
	for i := range normals {
		normals[i], _ = built.ProfileNormal(i)
	}
	cands := make([]*sampler.Profile, 64)
	for i := range cands {
		cands[i], _ = built.ProfileBuggy(i + 1)
	}

	for _, mode := range []struct {
		name     string
		sketches bool
	}{{"full", false}, {"sketch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{
				BaselineCap: numBaselines, CacheCap: 8, NoSync: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			for i, p := range normals {
				if _, _, err := st.Put("b1", store.LabelNormal, fmt.Sprint(i), p); err != nil {
					b.Fatal(err)
				}
			}
			srv, err := service.New(service.Config{
				Store: st, Resolver: service.NewBugsResolver(), Sketches: mode.sketches,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm the baseline: resolve debug info, and fold and cache the
			// corpus.
			warm, _ := built.ProfileBuggy(0)
			if _, _, err := st.Put("b1", store.LabelCandidate, "warm", warm); err != nil {
				b.Fatal(err)
			}
			if _, _, err := srv.Diagnose(service.DiagnoseRequest{Workload: "b1", Candidates: []string{"warm"}}); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				id := fmt.Sprintf("c%d", i)
				if _, _, err := st.Put("b1", store.LabelCandidate, id, cands[i%len(cands)]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				resp, _, err := srv.Diagnose(service.DiagnoseRequest{Workload: "b1", Candidates: []string{id}})
				if err != nil {
					b.Fatal(err)
				}
				if resp.Cached {
					b.Fatal("memo hit: candidate pool exhausted, use a smaller -benchtime")
				}
				if resp.Sketches != mode.sketches {
					b.Fatalf("mode mismatch: resp.Sketches=%v want %v", resp.Sketches, mode.sketches)
				}
			}
			b.StopTimer()
			if mode.sketches {
				if sst := st.SketchStats(); sst.Rebuilds != 0 {
					b.Fatalf("sketch path rebuilt sketches from blobs: %+v", sst)
				}
			}
		})
	}
}
