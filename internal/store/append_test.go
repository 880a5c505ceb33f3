package store_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vprof/internal/faultfs"
	"vprof/internal/profilefmt"
	"vprof/internal/profilefmt/profilefmttest"
	"vprof/internal/sampler"
	"vprof/internal/store"
)

// storeFiles are the three append-only files of a store with one segment.
var storeFiles = []string{"MANIFEST", "segment-000000.seg", "sketches.log"}

// fileSizes returns the length of each of storeFiles in dir.
func fileSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	sizes := map[string]int64{}
	for _, name := range storeFiles {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sizes[name] = fi.Size()
	}
	return sizes
}

// appendFault is one fault planted on the second push of a fresh store.
// Opening writes and syncs the segment header (write and sync #1) and the
// sketch log header (#2). The first push writes and syncs its blob frame
// (#3) and its manifest record (#4), and writes its sketch frame without a
// sync (write #5) once its fold logs, which the tests wait for. So the
// second push's segment and manifest appends are writes #6 and #7 and
// syncs #5 and #6, and its sketch frame is write #8; the sketch log's
// next sync is Flush's third, sync #9.
type appendFault struct {
	name  string
	plant func(inj *faultfs.Injector, write, sync int, err error)
}

var appendFaults = []appendFault{
	{"write-error", func(inj *faultfs.Injector, write, _ int, err error) { inj.FailNth(faultfs.OpWrite, write, err) }},
	{"short-write", func(inj *faultfs.Injector, write, _ int, _ error) { inj.ShortWriteNth(write, 5) }},
	{"sync-error", func(inj *faultfs.Injector, _, sync int, err error) { inj.FailNth(faultfs.OpSync, sync, err) }},
}

// pushLogged pushes blob and waits for its sketch fold to log its frame,
// so the next push's writes are numbered after the frame's.
func pushLogged(t *testing.T, s *store.Store, run string, blob []byte) *store.Entry {
	t.Helper()
	e, _, err := s.PutBlob("w", store.LabelNormal, run, blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetSketch(e.ID); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAppendFailureRollsBack: a segment frame or manifest record whose
// write fails, tears short or does not sync leaves the push unacked and
// every file at its pre-push length; a retry then acks, and a reopen finds
// nothing to repair.
func TestAppendFailureRollsBack(t *testing.T) {
	for _, file := range []struct {
		name        string
		write, sync int
	}{{"segment", 6, 5}, {"manifest", 7, 6}} {
		for _, fault := range appendFaults {
			t.Run(file.name+"/"+fault.name, func(t *testing.T) {
				dir := t.TempDir()
				inj := faultfs.NewInjector(nil)
				boom := errors.New("injected fault")
				fault.plant(inj, file.write, file.sync, boom)
				s, err := store.Open(dir, store.Options{FS: inj})
				if err != nil {
					t.Fatal(err)
				}
				pushLogged(t, s, "0", mustBlob(t, 1))
				before := fileSizes(t, dir)
				blob := mustBlob(t, 2)
				if _, _, err := s.PutBlob("w", store.LabelNormal, "1", blob); err == nil {
					t.Fatal("push acked despite the fault")
				}
				if _, ok := s.Lookup("w", store.LabelNormal, "1"); ok {
					t.Fatal("unacked push is visible")
				}
				for name, size := range fileSizes(t, dir) {
					if size != before[name] {
						t.Errorf("%s: %d bytes after the failed push, %d before", name, size, before[name])
					}
				}
				if e, dup, err := s.PutBlob("w", store.LabelNormal, "1", blob); err != nil || dup {
					t.Fatalf("retry = %v, dup=%v", err, dup)
				} else if _, err := s.Get(e.ID); err != nil {
					t.Fatal(err)
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
				if got := len(s2.Baselines("w")); got != 2 {
					t.Fatalf("%d baselines after reopen, want 2", got)
				}
			})
		}
	}
}

// TestSketchAppendFailureAcks: a sketch frame whose write fails or tears
// short never fails the push: the log goes back to its length before the
// append, and GetSketch rebuilds the sketch once from its blob. The frame
// has no sync of its own, so a sync fault on the sketch log fails the
// Flush that syncs it, not the push, and the frame stays indexed. Either
// way a reopen is clean.
func TestSketchAppendFailureAcks(t *testing.T) {
	for _, fault := range appendFaults {
		t.Run(fault.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInjector(nil)
			boom := errors.New("injected fault")
			fault.plant(inj, 8, 9, boom)
			s, err := store.Open(dir, store.Options{FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			pushLogged(t, s, "0", mustBlob(t, 1))
			logBefore := fileSizes(t, dir)["sketches.log"]
			e, _, err := s.PutBlob("w", store.LabelNormal, "1", mustBlob(t, 2))
			if err != nil {
				t.Fatalf("a failed sketch append failed the push: %v", err)
			}
			syncFault := fault.name == "sync-error"
			if err := s.Flush(); syncFault != errors.Is(err, boom) {
				t.Fatalf("Flush() = %v, want the injected fault %v", err, syncFault)
			}
			if got := fileSizes(t, dir)["sketches.log"]; (got != logBefore) != syncFault {
				t.Fatalf("sketches.log: %d bytes after the push's frame, %d before", got, logBefore)
			}
			sk, err := s.GetSketch(e.ID)
			if err != nil {
				t.Fatal(err)
			}
			if sk.BlobID != e.ID {
				t.Fatalf("GetSketch(%s) returned the sketch of %s", e.ID[:8], sk.BlobID)
			}
			if _, err := s.GetSketch(e.ID); err != nil {
				t.Fatal(err)
			}
			wantRebuilds := int64(1)
			if syncFault {
				wantRebuilds = 0
			}
			if st := s.SketchStats(); st.Rebuilds != wantRebuilds || st.Indexed != 2 {
				t.Fatalf("sketch stats %+v, want %d rebuild(s) and both sketches indexed", st, wantRebuilds)
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
				t.Fatalf("unclean reopen:\n%s", s2.Recovery().Render())
			}
		})
	}
}

// TestFailedRollback: when the truncate that rolls back a failed append
// fails too, a segment or manifest leaves the store refusing writes and
// reporting itself unhealthy until a reopen repairs it, while a sketch log
// still never fails a push. Either way a reopen keeps every acked push and
// leaves the store clean.
func TestFailedRollback(t *testing.T) {
	for _, c := range []struct {
		file  string
		nth   int
		wedge bool
	}{{"segment", 6, true}, {"manifest", 7, true}, {"sketch", 8, false}} {
		t.Run(c.file, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInjector(nil)
			inj.ShortWriteNth(c.nth, 5)
			inj.FailNth(faultfs.OpTruncate, 1, errors.New("truncate failed"))
			s, err := store.Open(dir, store.Options{FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			var acked []string
			for i, run := range []string{"0", "1", "2"} {
				e, _, err := s.PutBlob("w", store.LabelNormal, run, mustBlob(t, int64(i)))
				if err == nil {
					acked = append(acked, e.ID)
					s.GetSketch(e.ID) // the frame is written before the next push
				}
				if wantErr := c.wedge && i >= 1; (err != nil) != wantErr {
					t.Fatalf("push %d = %v, want failure %v", i, err, wantErr)
				}
			}
			if err := s.Health(); (err != nil) != c.wedge {
				t.Fatalf("Health() = %v, want failure %v", err, c.wedge)
			}
			for _, id := range acked {
				if sk, err := s.GetSketch(id); err != nil || sk.BlobID != id {
					t.Fatalf("GetSketch(%s) = %v, %v", id[:8], sk, err)
				}
			}
			s.Close()

			s2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range acked {
				if _, err := s2.Get(id); err != nil {
					t.Fatalf("acked blob %s lost: %v", id[:8], err)
				}
			}
			if _, _, err := s2.PutBlob("w", store.LabelNormal, "3", mustBlob(t, 3)); err != nil {
				t.Fatalf("push after reopen: %v", err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := store.Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("store not clean after reopen:\n%s", rep.Render())
			}
		})
	}
}

// TestStoreFilesPinned pins the bytes of all three store files after a
// fixed three-push ingest: the segment and sketch-log headers and frames,
// and the manifest's records. The same pushes made with version-1 bundles,
// as older agents sent them, still write the files first pinned, and a
// store holding them reopens clean and reads the same profiles back.
func TestStoreFilesPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		marshal func(*sampler.Profile) []byte
		want    map[string]string
	}{
		{"v2", func(p *sampler.Profile) []byte {
			blob, err := profilefmt.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}, map[string]string{
			"MANIFEST":           "6bd7bb4b07cc6195e161174c739436a705b434f8d3d677cd712bb54d1aa2094b",
			"segment-000000.seg": "b481db7755e1a02cf5bbdb2a516bbbfa9e7c61a9e735cc016ae8e975a93d04ee",
			"sketches.log":       "16d64bcaaccc3a15fec8695dce8915bbee69e995125c6c9ce33bea3d3b5ac279",
		}},
		{"v1", profilefmttest.MarshalV1, map[string]string{
			"MANIFEST":           "c236096d28380f1c183f81487952b7bf7098c2e01e9735c7463a383b11d49121",
			"segment-000000.seg": "e2a7a1abc91619208169dc350d185b05ad2ff8aa2ec5ca58523de136124f05ed",
			"sketches.log":       "ae9f2db130e6b69ace2cc7366e02944a4f4ec7f3b5b2ea23474a62fdcd4fe834",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ids := map[string]*sampler.Profile{}
			for i, push := range []struct {
				workload string
				label    store.Label
				run      string
			}{
				{"redis get/set", store.LabelNormal, "0"},
				{"redis get/set", store.LabelNormal, "1"},
				{"mysql", store.LabelCandidate, "run 7"},
			} {
				p := testProfile(int64(i + 20))
				e, _, err := s.PutBlob(push.workload, push.label, push.run, c.marshal(p))
				if err != nil {
					t.Fatal(err)
				}
				ids[e.ID] = p
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, name := range storeFiles {
				raw, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				if h := hex.EncodeToString(sum[:]); h != c.want[name] {
					got = append(got, name+" "+h)
				}
			}
			if len(got) > 0 {
				t.Fatalf("store file bytes changed:\n%s", strings.Join(got, "\n"))
			}

			rep, err := store.Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("store not clean:\n%s", rep.Render())
			}
			s2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			for id, want := range ids {
				p, err := s2.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p, want) {
					t.Errorf("Get(%s) = %+v, want %+v", id[:8], p, want)
				}
			}
		})
	}
}
