package store_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vprof/internal/faultfs"
	"vprof/internal/profilefmt"
	"vprof/internal/store"
)

// ackedPush records one push the store acknowledged before a crash.
type ackedPush struct {
	workload string
	label    store.Label
	run      string
	id       string
}

// crashIngest replays a fixed ingest sequence (two workloads, blobs big
// enough to force segment rollovers) against s, returning every push that
// was acknowledged before the first error.
func crashIngest(t *testing.T, s *store.Store) ([]ackedPush, error) {
	t.Helper()
	var acked []ackedPush
	for i := 0; i < 6; i++ {
		wl := "redis"
		if i%2 == 1 {
			wl = "mysql"
		}
		label := store.LabelNormal
		if i >= 4 {
			label = store.LabelCandidate
		}
		run := fmt.Sprint(i / 2)
		e, _, err := s.PutBlob(wl, label, run, mustBlob(t, int64(i)))
		if err != nil {
			return acked, err
		}
		acked = append(acked, ackedPush{workload: wl, label: label, run: run, id: e.ID})
	}
	return acked, nil
}

func mustBlob(t *testing.T, seed int64) []byte {
	t.Helper()
	blob, err := profilefmt.Marshal(testProfile(seed))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// crashOpts keeps segments smaller than one test bundle, so every push of
// the ingest sequence rolls over and the crash matrix covers
// segment-creation (temp + rename) crash points too.
func crashOpts(fsys faultfs.FS) store.Options {
	return store.Options{FS: fsys, SegmentSize: 1024}
}

// TestCrashReplayMatrix is the tentpole's durability proof: the same
// ingest is killed at every single mutating filesystem operation (both
// clean-cut and torn-write crashes), the directory is reopened like a
// process restart, and every acknowledged push must still be there, with a
// clean bill of health from Fsck afterwards.
func TestCrashReplayMatrix(t *testing.T) {
	// Dry run: count how many mutating ops the full ingest performs.
	dry := faultfs.NewInjector(nil)
	s, err := store.Open(t.TempDir(), crashOpts(dry))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashIngest(t, s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	total := dry.Mutations()
	if total < 20 {
		t.Fatalf("suspiciously few crash points: %d", total)
	}

	for n := 1; n <= total; n++ {
		n := n
		t.Run(fmt.Sprintf("crash-at-%02d", n), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInjector(nil)
			inj.CrashAt(n)
			inj.SetTorn(n%2 == 0)

			var acked []ackedPush
			s, err := store.Open(dir, crashOpts(inj))
			if err == nil {
				acked, _ = crashIngest(t, s)
				s.Close()
			}
			if !inj.Crashed() {
				t.Fatalf("crash point %d never reached", n)
			}

			// Restart: reopen through the real filesystem.
			s2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			for _, a := range acked {
				e, ok := s2.Lookup(a.workload, a.label, a.run)
				if !ok {
					t.Fatalf("acked push %v lost after crash\nrecovery: %s", a, s2.Recovery().Render())
				}
				if e.ID != a.id {
					t.Fatalf("acked push %v came back as %s", a, e.ID)
				}
				if _, err := s2.Get(a.id); err != nil {
					t.Fatalf("acked blob %s unreadable after crash: %v", a.id, err)
				}
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}

			// Open repaired whatever the crash tore; Fsck must now agree.
			rep, err := store.Fsck(dir)
			if err != nil {
				t.Fatalf("fsck after recovery: %v", err)
			}
			if !rep.Clean() {
				t.Fatalf("store not clean after recovery:\n%s", rep.Render())
			}
		})
	}
}

// TestCrashRecoveredStoreAcceptsWrites: a store reopened after a crash is
// not read-only — ingest continues where it left off.
func TestCrashRecoveredStoreAcceptsWrites(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	inj.CrashAt(12)
	s, err := store.Open(dir, crashOpts(inj))
	if err == nil {
		_, _ = crashIngest(t, s)
		s.Close()
	}

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	e, dup, err := s2.PutBlob("redis", store.LabelNormal, "post-crash", mustBlob(t, 77))
	if err != nil || dup {
		t.Fatalf("push after recovery = %v, dup=%v", err, dup)
	}
	if _, err := s2.Get(e.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryQuarantinesCorruptSegment flips one payload byte on disk and
// checks recovery refuses the segment: it lands in quarantine/, its
// records are dropped from the manifest, and a reopened store neither
// serves nor crashes on the damaged data.
func TestRecoveryQuarantinesCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PutBlob("redis", store.LabelNormal, "0", mustBlob(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, "segment-000000.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40 // flip a bit inside the blob payload
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Fsck (read-only) sees the damage but must not touch anything.
	rep, err := store.Fsck(dir)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if rep.Clean() || len(rep.Quarantined) != 1 {
		t.Fatalf("fsck of corrupt store:\n%s", rep.Render())
	}
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("read-only fsck moved the segment: %v", err)
	}

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open with corrupt segment: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Lookup("redis", store.LabelNormal, "0"); ok {
		t.Fatal("corrupt blob still served after recovery")
	}
	rec := s2.Recovery()
	if rec.Clean() || len(rec.Quarantined) != 1 || rec.DroppedRecords != 1 {
		t.Fatalf("recovery report:\n%s", rec.Render())
	}
	qdes, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(qdes) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(qdes), err)
	}

	// The quarantined segment stays out of the way: a second pass is clean.
	rep2, err := store.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("store not clean after quarantine:\n%s", rep2.Render())
	}
}

// TestRepairExitSemantics mirrors the CLI contract: Fsck reports, Repair
// fixes, and a repaired store comes back clean.
func TestRepairExitSemantics(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PutBlob("w", store.LabelNormal, "0", mustBlob(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the manifest tail and drop temp debris, like a crash would.
	mf, err := os.OpenFile(filepath.Join(dir, "MANIFEST"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.WriteString("v2 torn-line-with"); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	if err := os.WriteFile(filepath.Join(dir, "segment-000009.seg.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := store.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.TruncatedBytes == 0 {
		t.Fatalf("fsck missed the torn tail:\n%s", rep.Render())
	}

	fixed, err := store.Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Clean() || len(fixed.Repaired) == 0 {
		t.Fatalf("repair did nothing:\n%s", fixed.Render())
	}

	rep2, err := store.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() || rep2.Records != 1 {
		t.Fatalf("store not clean after repair:\n%s", rep2.Render())
	}

	// Unrecoverable: the directory does not exist at all.
	if _, err := store.Fsck(filepath.Join(dir, "no-such-store")); err == nil {
		t.Fatal("fsck of a missing directory must fail")
	}
}

// TestManifestSyncErrorPath: when the manifest fsync fails the push is not
// acknowledged and both files are rolled back — a retry succeeds and a
// restart sees exactly the acknowledged state.
func TestManifestSyncErrorPath(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	boom := errors.New("manifest sync: disk full")
	// Sync #1 seals the first segment's header at create time, #2 the
	// sketch log's; #3 is the first push's segment sync, #4 its manifest
	// sync.
	inj.FailNth(faultfs.OpSync, 4, boom)

	s, err := store.Open(dir, store.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	blob := mustBlob(t, 9)
	if _, _, err := s.PutBlob("w", store.LabelNormal, "0", blob); !errors.Is(err, boom) {
		t.Fatalf("push with failing manifest sync = %v, want %v", err, boom)
	}
	if _, ok := s.Lookup("w", store.LabelNormal, "0"); ok {
		t.Fatal("unacked push is visible")
	}
	// The fault was transient: the same push must now go through cleanly.
	e, dup, err := s.PutBlob("w", store.LabelNormal, "0", blob)
	if err != nil || dup {
		t.Fatalf("retry = %v, dup=%v", err, dup)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Recovery().Clean() {
		t.Fatalf("rollback left debris:\n%s", s2.Recovery().Render())
	}
	got, ok := s2.Lookup("w", store.LabelNormal, "0")
	if !ok || got.ID != e.ID {
		t.Fatalf("after restart: %+v, %v", got, ok)
	}
	if _, err := s2.Get(e.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRolloverErrorLeavesStoreUsable: a fault while creating the next
// segment must not leave temp files or a wedged store behind (the
// partial-segment-cleanup satellite).
func TestRolloverErrorLeavesStoreUsable(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	boom := errors.New("segment header write failed")
	// Write #1 is the first segment's header, #2 the sketch log's; push #1
	// writes its blob frame (#3), manifest line (#4) and, once its fold
	// logs, sketch frame (#5); push #2 rolls over first, so the next
	// segment's header write is #6.
	inj.FailNth(faultfs.OpWrite, 6, boom)

	s, err := store.Open(dir, store.Options{FS: inj, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pushLogged(t, s, "0", mustBlob(t, 1))
	if _, _, err := s.PutBlob("w", store.LabelNormal, "1", mustBlob(t, 2)); !errors.Is(err, boom) {
		t.Fatalf("push during failed rollover = %v, want %v", err, boom)
	}
	for _, de := range mustReadDir(t, dir) {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Fatalf("temp debris left behind: %s", de.Name())
		}
	}
	// The store retries the rollover on the next append.
	if _, _, err := s.PutBlob("w", store.LabelNormal, "1", mustBlob(t, 2)); err != nil {
		t.Fatalf("push after transient rollover failure: %v", err)
	}
	if _, ok := s.Lookup("w", store.LabelNormal, "1"); !ok {
		t.Fatal("recovered push missing")
	}
}

func mustReadDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return des
}

// TestOpenManifestEdgeCases: empty store, zero-length manifest, and a
// manifest holding duplicate records must all open cleanly.
func TestOpenManifestEdgeCases(t *testing.T) {
	t.Run("no-manifest", func(t *testing.T) {
		s, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := len(s.Workloads()); got != 0 {
			t.Fatalf("fresh store has %d workloads", got)
		}
		if !s.Recovery().Clean() {
			t.Fatalf("fresh store not clean:\n%s", s.Recovery().Render())
		}
	})

	t.Run("zero-length-manifest", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := len(s.Workloads()); got != 0 {
			t.Fatalf("zero-length manifest yields %d workloads", got)
		}
		if !s.Recovery().Clean() {
			t.Fatalf("zero-length manifest not clean:\n%s", s.Recovery().Render())
		}
	})

	t.Run("duplicate-records", func(t *testing.T) {
		dir := t.TempDir()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := s.PutBlob("w", store.LabelNormal, "0", mustBlob(t, 5))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Duplicate the record wholesale, as a replayed-twice log would.
		mpath := filepath.Join(dir, "MANIFEST")
		raw, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mpath, append(raw, raw...), 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("open with duplicate records: %v", err)
		}
		defer s2.Close()
		got, ok := s2.Lookup("w", store.LabelNormal, "0")
		if !ok || got.ID != e.ID {
			t.Fatalf("entry after duplicate replay: %+v, %v", got, ok)
		}
		if bl := s2.Baselines("w"); len(bl) != 1 {
			t.Fatalf("duplicate record inflated baselines: %d", len(bl))
		}
		if _, err := s2.Get(e.ID); err != nil {
			t.Fatal(err)
		}
	})
}
