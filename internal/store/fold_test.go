package store_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vprof/internal/faultfs"
	"vprof/internal/store"
)

// notYet fails the test if done delivers within a short grace period: a
// call that should be blocked on a held fold returns within microseconds
// when it is not.
func notYet[T any](t *testing.T, done <-chan T, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned while a fold was held", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestPendingFoldGetSketchWaits: a push acks while its fold is held, and a
// GetSketch of its blob waits for that fold and returns the folded sketch
// without rebuilding it from the blob.
func TestPendingFoldGetSketchWaits(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := store.HoldFolds(t)
	defer release() // before the Close, should the test fail
	e, _, err := s.PutBlob("w", store.LabelNormal, "0", mustBlob(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := s.PendingFolds(); n != 1 {
		t.Fatalf("%d pending fold(s) after the ack, want 1", n)
	}
	if _, ok := s.Lookup("w", store.LabelNormal, "0"); !ok {
		t.Fatal("acked push is not indexed")
	}
	got := make(chan error, 1)
	go func() {
		sk, err := s.GetSketch(e.ID)
		if err == nil && sk.BlobID != e.ID {
			err = fmt.Errorf("GetSketch(%s) returned the sketch of %s", e.ID[:8], sk.BlobID)
		}
		got <- err
	}()
	notYet(t, got, "GetSketch")
	release()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if st := s.SketchStats(); st.Rebuilds != 0 || st.Indexed != 1 {
		t.Fatalf("sketch stats %+v, want the fold's sketch indexed and no rebuild", st)
	}
	if n := s.PendingFolds(); n != 0 {
		t.Fatalf("%d pending fold(s) after GetSketch, want 0", n)
	}
}

// TestPendingFoldJoinedByFlushAndClose: Flush and Close wait for the
// pending folds, so the sketch frames of pushes acked before them are
// appended and synced before they return. A crash right after Flush, or a
// reopen after Close, finds every frame.
func TestPendingFoldJoinedByFlushAndClose(t *testing.T) {
	for _, op := range []string{"Flush", "Close"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInjector(nil)
			s, err := store.Open(dir, store.Options{FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			release := store.HoldFolds(t)
			for i := 0; i < 3; i++ {
				if _, _, err := s.PutBlob("w", store.LabelNormal, fmt.Sprint(i), mustBlob(t, int64(i))); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan error, 1)
			go func() {
				if op == "Flush" {
					done <- s.Flush()
				} else {
					done <- s.Close()
				}
			}()
			notYet(t, done, op)
			release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			inj.Crash() // nothing unsynced may be lost
			s.Close()

			s2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if !s2.Recovery().Clean() {
				t.Fatalf("unclean reopen:\n%s", s2.Recovery().Render())
			}
			if st := s2.SketchStats(); st.Indexed != 3 {
				t.Fatalf("%d sketch frame(s) survived, want 3", st.Indexed)
			}
		})
	}
}

// TestPendingFoldLostInCrash: a crash after a push acked and before its
// sketch frame was synced keeps the push, since its blob and manifest
// record are durable, and tears the unsynced frame. The reopen truncates
// the torn tail and is clean after it, and GetSketch rebuilds the lost
// sketch once.
func TestPendingFoldLostInCrash(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	s, err := store.Open(dir, store.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	e0 := pushLogged(t, s, "0", mustBlob(t, 1))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	e1 := pushLogged(t, s, "1", mustBlob(t, 2)) // frame written, not synced
	inj.SetTorn(true)
	inj.Crash()
	s.Close()

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.Recovery(); rep.Clean() || !strings.Contains(rep.Render(), "sketches.log") {
		t.Fatalf("reopen found no torn sketch frame:\n%s", rep.Render())
	}
	for _, e := range []*store.Entry{e0, e1} {
		if got, ok := s2.Lookup("w", store.LabelNormal, e.Run); !ok || got.ID != e.ID {
			t.Fatalf("acked push %s lost: %+v", e.Run, got)
		}
		for i := 0; i < 2; i++ {
			if sk, err := s2.GetSketch(e.ID); err != nil || sk.BlobID != e.ID {
				t.Fatalf("GetSketch(%s) = %v, %v", e.ID[:8], sk, err)
			}
		}
	}
	if st := s2.SketchStats(); st.Rebuilds != 1 || st.Indexed != 2 {
		t.Fatalf("sketch stats %+v, want one rebuild and both sketches indexed", st)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := store.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after the truncate:\n%s", rep.Render())
	}
}

// TestPendingFoldBound: with every fold held, MaxPendingFolds pushes ack
// and each push after them waits for its own fold, however many arrive at
// once. Released, they all ack, each sketch is logged once, and none is
// rebuilt.
func TestPendingFoldBound(t *testing.T) {
	const burst = 6
	s, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := store.HoldFolds(t)
	defer release() // before the Close, should the test fail
	var ids []string
	for i := 0; i < store.MaxPendingFolds; i++ {
		e, _, err := s.PutBlob("w", store.LabelNormal, fmt.Sprint(i), mustBlob(t, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
	}
	var acked atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := store.MaxPendingFolds; i < store.MaxPendingFolds+burst; i++ {
		blob := mustBlob(t, int64(i))
		wg.Add(1)
		go func(run string) {
			defer wg.Done()
			if _, _, err := s.PutBlob("w", store.LabelNormal, run, blob); err != nil {
				errs <- err
			}
			acked.Add(1)
		}(fmt.Sprint(i))
	}
	for deadline := time.Now().Add(10 * time.Second); s.PendingFolds() < store.MaxPendingFolds+burst; {
		if time.Now().After(deadline) {
			t.Fatalf("%d folds queued, want %d", s.PendingFolds(), store.MaxPendingFolds+burst)
		}
		time.Sleep(time.Millisecond)
	}
	allDone := make(chan struct{})
	go func() { wg.Wait(); close(allDone) }()
	notYet(t, allDone, "a push over the bound")
	if n := acked.Load(); n != 0 {
		t.Fatalf("%d push(es) over the bound acked while the folds were held", n)
	}
	release()
	<-allDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := s.GetSketch(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.SketchStats(); st.Rebuilds != 0 || st.Indexed != store.MaxPendingFolds+burst {
		t.Fatalf("sketch stats %+v, want %d indexed and no rebuild", st, store.MaxPendingFolds+burst)
	}
	if n := s.PendingFolds(); n != 0 {
		t.Fatalf("%d fold(s) still pending after Flush", n)
	}
}
