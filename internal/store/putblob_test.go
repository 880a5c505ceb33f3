package store_test

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vprof/internal/faultfs"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/store"
)

// TestPutBlobReleasesBlob overwrites the pushed bytes as soon as PutBlob
// returns, on every way out of it: accept, dedup, reject, a failed append,
// a wedged store and a closed one. The caller owns blob again at return,
// so under -race a goroutine of the push still reading it is reported. A
// push to a closed store must fail with "store: closed", not panic.
func TestPutBlobReleasesBlob(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	// push overwrites blob once PutBlob returns and checks that the
	// push failed with an error containing wantErr, or was acked.
	push := func(run string, blob []byte, wantErr string) {
		t.Helper()
		_, _, err := s.PutBlob("w", store.LabelNormal, run, blob)
		for i := range blob {
			blob[i] = 0xff
		}
		if wantErr == "" && err != nil || wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)) {
			t.Fatalf("push of run %s = %v, want %q", run, err, wantErr)
		}
	}
	push("0", mustBlob(t, 1), "") // accept
	push("0", mustBlob(t, 1), "") // dedup
	bad := mustBlob(t, 2)
	push("1", bad[:len(bad)/2], "reject invalid profile")
	if err := s.Flush(); err != nil { // the accepted push's fold logs
		t.Fatal(err)
	}

	// Open wrote two headers and the accepted push three frames, so the
	// next segment append is write #6. It tears and its rollback fails:
	// the push fails and the store is wedged for the one after it.
	inj.ShortWriteNth(6, 5)
	inj.FailNth(faultfs.OpTruncate, 1, errors.New("truncate failed"))
	push("2", mustBlob(t, 3), "append blob")
	push("3", mustBlob(t, 4), "refusing writes")
	s.Close()
	push("4", mustBlob(t, 5), "store: closed")
}

// TestPushFileMutations pins what one push does to the filesystem: an
// invalid push mutates nothing, a fresh push makes exactly five mutations
// (segment write and fsync, manifest write and fsync, in that order, then
// once its fold finishes the sketch-log write, which has no fsync of its
// own), and a re-push of a stored entry makes none.
func TestPushFileMutations(t *testing.T) {
	t.Run("counts", func(t *testing.T) {
		dir := t.TempDir()
		inj := faultfs.NewInjector(nil)
		s, err := store.Open(dir, store.Options{FS: inj})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		muts, sizes := inj.Mutations(), fileSizes(t, dir)
		bad := mustBlob(t, 1)
		if _, _, err := s.PutBlob("w", store.LabelNormal, "0", bad[:len(bad)-3]); !errors.Is(err, store.ErrInvalidProfile) {
			t.Fatalf("invalid push = %v, want ErrInvalidProfile", err)
		}
		if got := inj.Mutations(); got != muts {
			t.Fatalf("invalid push made %d mutation(s)", got-muts)
		}
		for name, size := range fileSizes(t, dir) {
			if size != sizes[name] {
				t.Errorf("%s: %d bytes after the invalid push, %d before", name, size, sizes[name])
			}
		}
		e, _, err := s.PutBlob("w", store.LabelNormal, "0", mustBlob(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetSketch(e.ID); err != nil { // waits for the fold
			t.Fatal(err)
		}
		if got := inj.Mutations() - muts; got != 5 {
			t.Fatalf("fresh push made %d mutations, want 5", got)
		}
		for name, size := range fileSizes(t, dir) {
			if size <= sizes[name] {
				t.Errorf("%s did not grow: %d bytes", name, size)
			}
		}
		muts = inj.Mutations()
		if _, dup, err := s.PutBlob("w", store.LabelNormal, "0", mustBlob(t, 1)); err != nil || !dup {
			t.Fatalf("re-push = %v, dup=%v", err, dup)
		}
		if got := inj.Mutations(); got != muts {
			t.Fatalf("dedup push made %d mutation(s)", got-muts)
		}
	})
	// Opening writes the segment and sketch-log headers (writes #1, #2),
	// so the first push's writes are #3, #4 and #5.
	for _, c := range []struct {
		file    string
		nth     int
		wantErr string // "" = the push is acked
	}{
		{"segment", 3, "store: append blob"},
		{"manifest", 4, "store: append manifest record"},
		{"sketch log", 5, ""},
	} {
		t.Run(c.file, func(t *testing.T) {
			inj := faultfs.NewInjector(nil)
			inj.FailNth(faultfs.OpWrite, c.nth, errors.New("injected fault"))
			s, err := store.Open(t.TempDir(), store.Options{FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			_, _, err = s.PutBlob("w", store.LabelNormal, "0", mustBlob(t, 1))
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("push = %v, want ack", err)
				}
				if err := s.Flush(); err != nil { // waits for the fold
					t.Fatal(err)
				}
				if n := s.SketchStats().Indexed; n != 0 {
					t.Fatalf("%d sketch(es) indexed after the sketch-log write failed", n)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), c.wantErr) {
				t.Fatalf("push = %v, want %q", err, c.wantErr)
			}
		})
	}
}

// bigBlob encodes testProfile(seed) grown to n samples, so that its fold
// takes longer than a push's appends without fsync.
func bigBlob(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	p := testProfile(seed)
	for i := int64(len(p.Samples)); i < int64(n); i++ {
		p.Samples = append(p.Samples, sampler.Sample{
			Layout: int32(i % 2), PC: int32(i % 64), Value: seed + i%97, Tick: 97 * i, Link: -1,
		})
	}
	blob, err := profilefmt.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestConcurrentPushOrder has four goroutines push the same 16 runs at
// once, each in its own order, with two runs per distinct content. A
// push's fold outlasts its appends and its ack while other pushes append.
// Whatever the interleaving, each run is written once and deduped three
// times, each content's blob and sketch are written once, no sketch is
// rebuilt, and the live index equals a reopen of the same files, Seq
// included.
func TestConcurrentPushOrder(t *testing.T) {
	const runs, contents, pushers = 16, 8, 4
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	s, err := store.Open(dir, store.Options{FS: inj, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	blobs := make([][]byte, contents)
	for c := range blobs {
		blobs[c] = bigBlob(t, int64(c), 20000)
	}
	muts := inj.Mutations()
	var dups atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, pushers*runs)
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				r := (i*5 + g*3) % runs
				_, dup, err := s.PutBlob("w", store.LabelNormal, strconv.Itoa(r), blobs[r%contents])
				if err != nil {
					errs <- err
					return
				}
				if dup {
					dups.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := dups.Load(), int64((pushers-1)*runs); got != want {
		t.Errorf("%d pushes deduped, want %d", got, want)
	}
	live := s.Entries("w")
	for _, e := range live { // waits for the pending folds
		if _, err := s.GetSketch(e.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Without fsync a fresh content writes a segment frame, a manifest
	// record and a sketch frame; a new run of stored content writes only
	// its manifest record.
	if got, want := inj.Mutations()-muts, 3*contents+(runs-contents); got != want {
		t.Errorf("pushes made %d mutations, want %d", got, want)
	}
	if st := s.SketchStats(); st.Rebuilds != 0 || st.Indexed != contents {
		t.Errorf("sketch stats %+v, want %d indexed and no rebuild", st, contents)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Entries("w"); len(live) != runs || !reflect.DeepEqual(got, live) {
		t.Errorf("live index and reopen differ:\nlive   %v\nreopen %v", live, got)
	}
}
