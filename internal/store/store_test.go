package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/store"
)

// testProfile builds a small but non-trivial profile whose content varies
// with seed, so distinct runs hash to distinct blobs.
func testProfile(seed int64) *sampler.Profile {
	p := &sampler.Profile{
		Pid:        int(seed%7) + 1,
		File:       "prog.vp",
		Interval:   97,
		TotalTicks: 10000 + seed,
		NumAlarms:  100 + seed%13,
		Hist:       make([]int64, 64),
		Layout: []sampler.LayoutEntry{
			{Func: "scan", Name: "n"},
			{Func: "#global", Name: "buf", IsPointer: true},
		},
	}
	for i := range p.Hist {
		p.Hist[i] = (seed*31 + int64(i)*7) % 5
	}
	for i := int64(0); i < 20; i++ {
		p.Samples = append(p.Samples, sampler.Sample{
			Layout: int32(i % 2), PC: int32(i % 64), Value: seed + i, Tick: 97 * i, Link: -1,
		})
	}
	return p
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	e, dup, err := s.Put("w1", store.LabelNormal, "0", testProfile(1))
	if err != nil || dup {
		t.Fatalf("Put: %v dup=%v", err, dup)
	}
	if e.ID == "" || e.Workload != "w1" || e.Run != "0" {
		t.Fatalf("entry = %+v", e)
	}
	p, err := s.Get(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalTicks != 10001 || len(p.Samples) != 20 {
		t.Fatalf("decoded profile = %+v", p)
	}
	// Same key + same content: dedup, nothing new written.
	_, dup, err = s.Put("w1", store.LabelNormal, "0", testProfile(1))
	if err != nil || !dup {
		t.Fatalf("re-Put: %v dup=%v", err, dup)
	}
	// Same content under a new run: new entry, blob shared.
	e2, dup, err := s.Put("w1", store.LabelNormal, "1", testProfile(1))
	if err != nil || dup {
		t.Fatalf("alias Put: %v dup=%v", err, dup)
	}
	if e2.ID != e.ID {
		t.Fatalf("content addressing broken: %s vs %s", e2.ID, e.ID)
	}
	if got := len(s.Baselines("w1")); got != 2 {
		t.Fatalf("baselines = %d, want 2", got)
	}
}

func TestRejectsCorruptBlob(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob, err := profilefmt.Marshal(testProfile(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PutBlob("w", store.LabelCandidate, "0", blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	blob[10] ^= 0xff
	if _, _, err := s.PutBlob("w", store.LabelCandidate, "0", blob); err == nil {
		t.Fatal("corrupted blob accepted")
	}
	if _, _, err := s.PutBlob("", store.LabelCandidate, "0", blob); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestManifestReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		e, _, err := s.Put("redis", store.LabelNormal, fmt.Sprint(i), testProfile(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
	}
	if _, _, err := s.Put("redis", store.LabelCandidate, "0", testProfile(99)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index must come back from the manifest alone.
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	bl := s2.Baselines("redis")
	if len(bl) != 5 {
		t.Fatalf("baselines after reopen = %d, want 5", len(bl))
	}
	for i, e := range bl {
		if e.Run != fmt.Sprint(i) || e.ID != ids[i] {
			t.Fatalf("baseline %d = %+v, want run %d id %s", i, e, i, ids[i])
		}
		if _, err := s2.Get(e.ID); err != nil {
			t.Fatalf("Get(%s) after reopen: %v", e.ID, err)
		}
	}
	if got := len(s2.Candidates("redis")); got != 1 {
		t.Fatalf("candidates after reopen = %d", got)
	}
	// A torn trailing manifest line (crash mid-append) must not break open.
	mf, err := os.OpenFile(filepath.Join(dir, "MANIFEST"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.WriteString("v1 deadbeef 0 12"); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	s3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open with torn manifest: %v", err)
	}
	if got := len(s3.Baselines("redis")); got != 5 {
		t.Fatalf("baselines with torn manifest = %d", got)
	}
	s3.Close()
}

func TestRollingBaselineCorpus(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{BaselineCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 7; i++ {
		if _, _, err := s.Put("w", store.LabelNormal, fmt.Sprint(i), testProfile(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	bl := s.Baselines("w")
	if len(bl) != 3 {
		t.Fatalf("rolling corpus = %d entries, want 3", len(bl))
	}
	// Most recent three (runs 4,5,6), returned in run order.
	for i, want := range []string{"4", "5", "6"} {
		if bl[i].Run != want {
			t.Fatalf("corpus[%d].Run = %s, want %s", i, bl[i].Run, want)
		}
	}
	// Older runs are still stored (append-only), just out of the corpus.
	if e, ok := s.Lookup("w", store.LabelNormal, "0"); !ok {
		t.Fatal("evicted run lost")
	} else if _, err := s.Get(e.ID); err != nil {
		t.Fatal(err)
	}
}

func TestDecodedCache(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{CacheCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		e, _, err := s.Put("w", store.LabelNormal, fmt.Sprint(i), testProfile(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
	}
	base := s.CacheStats()
	if _, err := s.Get(ids[2]); err != nil { // still cached from Put
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Hits != base.Hits+1 {
		t.Fatalf("expected a cache hit, stats %+v -> %+v", base, st)
	}
	if _, err := s.Get(ids[0]); err != nil { // evicted: cap 2, three puts
		t.Fatal(err)
	}
	st2 := s.CacheStats()
	if st2.Misses != st.Misses+1 {
		t.Fatalf("expected a cache miss, stats %+v -> %+v", st, st2)
	}
	if st2.Entries > 2 {
		t.Fatalf("cache over capacity: %+v", st2)
	}
}

func TestSegmentRollover(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := s.Put("w", store.LabelNormal, fmt.Sprint(i), testProfile(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "segment-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("expected rollover to several segments, got %v (%v)", segs, err)
	}
	s2, err := store.Open(dir, store.Options{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, e := range s2.Baselines("w") {
		if _, err := s2.Get(e.ID); err != nil {
			t.Fatalf("Get across segments: %v", err)
		}
	}
}

// TestConcurrentAccess hammers Put/Get/Baselines/Workloads/GetSketch from
// many goroutines; run under -race it is the store's concurrency check.
// Every writer also pushes one shared profile under a run of its own, so
// several pushes fold the same blob's sketch at once and exactly one frame
// may reach the log. Readers fetch the sketch of every entry they list,
// which may be visible before its fold finishes: GetSketch must wait for
// that fold, never rebuild.
func TestConcurrentAccess(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{CacheCap: 8, BaselineCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers, readers, perWriter = 4, 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wl := fmt.Sprintf("wl%d", w%2)
			if _, _, err := s.Put(wl, store.LabelNormal, fmt.Sprintf("shared-%d", w), testProfile(1000)); err != nil {
				errs <- err
				return
			}
			for i := 0; i < perWriter; i++ {
				label := store.LabelNormal
				if i%3 == 0 {
					label = store.LabelCandidate
				}
				e, _, err := s.Put(wl, label, fmt.Sprintf("%d-%d", w, i), testProfile(int64(w*100+i)))
				if err != nil {
					errs <- err
					return
				}
				if _, err := s.Get(e.ID); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				for _, info := range s.Workloads() {
					for _, e := range s.Baselines(info.Workload) {
						if _, err := s.Get(e.ID); err != nil {
							errs <- err
							return
						}
						if _, err := s.GetSketch(e.ID); err != nil {
							errs <- err
							return
						}
					}
					for _, e := range s.Candidates(info.Workload) {
						if _, err := s.GetSketch(e.ID); err != nil {
							errs <- err
							return
						}
					}
				}
				s.CacheStats()
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, info := range s.Workloads() {
		total += info.Normals + info.Candidates
	}
	if total != writers*(perWriter+1) {
		t.Fatalf("stored %d entries, want %d", total, writers*(perWriter+1))
	}
	if err := s.Flush(); err != nil { // the last folds log
		t.Fatal(err)
	}
	st := s.SketchStats()
	if st.Indexed != writers*perWriter+1 {
		t.Fatalf("sketch log indexes %d frames, want one per distinct blob (%d)", st.Indexed, writers*perWriter+1)
	}
	if st.Rebuilds != 0 {
		t.Fatalf("%d sketch(es) rebuilt: a read did not wait for a pending fold", st.Rebuilds)
	}
}

// BenchmarkStoreIngest tracks ingestion throughput of small synthetic
// bundles (testProfile: 20 samples, two variables) with fsync on. The
// first 64 pushes store fresh blobs: decode and hash, sketch fold and
// frame, segment, manifest and sketch-log appends, and the index. The
// bundles then repeat under new runs, so each later push finds its blob
// stored and its sketch logged and appends only a manifest record. Root
// BenchmarkPush times a real 142 KiB bundle.
func BenchmarkStoreIngest(b *testing.B) {
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	blobs := make([][]byte, 64)
	for i := range blobs {
		blob, err := profilefmt.Marshal(testProfile(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		blobs[i] = blob
	}
	b.SetBytes(int64(len(blobs[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.PutBlob("bench", store.LabelNormal, fmt.Sprint(i), blobs[i%len(blobs)]); err != nil {
			b.Fatal(err)
		}
	}
}
