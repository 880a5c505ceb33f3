package store_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vprof/internal/faultfs"
	"vprof/internal/obs"
	"vprof/internal/profilefmt"
	"vprof/internal/sketch"
	"vprof/internal/store"
)

// sketchFrame frames payload as the sketch log does: its size and CRC32C,
// both little-endian uint32, then the payload.
func sketchFrame(payload []byte) []byte {
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(frame[8:], payload)
	return frame
}

// appendSketchFrame appends a CRC-valid frame with an arbitrary payload to a
// closed store's sketches.log — the shape of corruption that flips payload
// bytes and fixes up the checksum, or of a frame written by a future encoder.
func appendSketchFrame(t *testing.T, dir string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "sketches.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(sketchFrame(payload)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSketchPersistedAtIngest: a push folds and persists its sketch, and
// GetSketch serves it — from cache or log — without ever touching the
// decoded-profile cache or the raw blob.
func TestSketchPersistedAtIngest(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := testProfile(3)
	e, _, err := s.Put("w", store.LabelNormal, "0", prof)
	if err != nil {
		t.Fatal(err)
	}
	want := sketch.FromProfile(prof)
	want.BlobID = e.ID

	sk, err := s.GetSketch(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sk, want) {
		t.Fatalf("sketch from warm store differs from direct fold:\n%+v\n%+v", sk, want)
	}
	if st := s.SketchStats(); st.Rebuilds != 0 || st.Indexed != 1 {
		t.Fatalf("warm sketch read caused rebuilds: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart: the sketch must come back from the log, not the blob.
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Recovery().Clean() {
		t.Fatalf("unclean recovery:\n%s", s2.Recovery().Render())
	}
	if got := s2.Recovery().SketchRecords; got != 1 {
		t.Fatalf("recovery saw %d sketch frames, want 1", got)
	}
	before := s2.CacheStats()
	sk2, err := s2.GetSketch(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sk2, want) {
		t.Fatal("sketch from cold log differs")
	}
	after := s2.CacheStats()
	if after.Misses != before.Misses || after.Hits != before.Hits {
		t.Fatalf("sketch read touched the decoded-profile cache: %+v -> %+v", before, after)
	}
	if st := s2.SketchStats(); st.Rebuilds != 0 {
		t.Fatalf("cold sketch read rebuilt from blob: %+v", st)
	}
}

// TestSketchUpgradeFromOldStore: a store created before the sketch log
// existed (simulated by deleting it) rebuilds sketches lazily from raw
// blobs and persists them, so the rebuild happens once.
func TestSketchUpgradeFromOldStore(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := s.Put("w", store.LabelNormal, "0", testProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "sketches.log")); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.SketchStats(); st.Indexed != 0 {
		t.Fatalf("fresh log indexed %d sketches", st.Indexed)
	}
	sk, err := s2.GetSketch(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sk.BlobID != e.ID {
		t.Fatalf("rebuilt sketch has BlobID %q", sk.BlobID)
	}
	if st := s2.SketchStats(); st.Rebuilds != 1 || st.Indexed != 1 {
		t.Fatalf("after upgrade read: %+v, want 1 rebuild persisted", st)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The rebuild persisted: the next incarnation reads it from the log.
	s3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, err := s3.GetSketch(e.ID); err != nil {
		t.Fatal(err)
	}
	if st := s3.SketchStats(); st.Rebuilds != 0 {
		t.Fatalf("persisted rebuild not reused: %+v", st)
	}
}

// TestSketchLogTornTailRecovery: a torn sketch frame is truncated away
// without dropping any manifest record, and the lost sketch rebuilds from
// its blob on demand.
func TestSketchLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e0, _, err := s.Put("w", store.LabelNormal, "0", testProfile(7))
	if err != nil {
		t.Fatal(err)
	}
	e1, _, err := s.Put("w", store.LabelNormal, "1", testProfile(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the second frame: chop bytes off the end of the log.
	path := filepath.Join(dir, "sketches.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Clean() || rec.SketchRecords != 1 || rec.DroppedRecords != 0 {
		t.Fatalf("recovery: %s", rec.Render())
	}
	// Both entries survive; the torn sketch rebuilds.
	for _, e := range []string{e0.ID, e1.ID} {
		if _, err := s2.GetSketch(e); err != nil {
			t.Fatalf("GetSketch(%s): %v", e[:8], err)
		}
	}
	if st := s2.SketchStats(); st.Rebuilds != 1 {
		t.Fatalf("want exactly the torn sketch rebuilt: %+v", st)
	}
	// A second recovery pass is clean.
	rep, err := store.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after repair:\n%s", rep.Render())
	}
}

// TestSketchLogUndecodableFrameFsck: a frame whose CRC holds but whose
// payload no longer decodes as a sketch is invisible to the replay path (it
// skips what it cannot decode) — fsck must report it and repair must truncate
// it, without touching the good frames before it.
func TestSketchLogUndecodableFrameFsck(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e0, _, err := s.Put("w", store.LabelNormal, "0", testProfile(11))
	if err != nil {
		t.Fatal(err)
	}
	e1, _, err := s.Put("w", store.LabelNormal, "1", testProfile(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	payload := []byte("checksummed garbage that is not a sketch encoding")
	appendSketchFrame(t, dir, payload)
	path := filepath.Join(dir, "sketches.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Fsck is a dry run: it reports the frame but leaves the file alone.
	rep, err := store.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck missed the CRC-valid undecodable frame")
	}
	if rep.SketchRecords != 2 {
		t.Fatalf("fsck counted %d good frames, want 2", rep.SketchRecords)
	}
	if want := int64(8 + len(payload)); rep.TruncatedBytes != want {
		t.Fatalf("fsck would truncate %d bytes, want %d", rep.TruncatedBytes, want)
	}
	found := false
	for _, is := range rep.Issues {
		if strings.Contains(is, "sketches.log") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sketches.log issue in report:\n%s", rep.Render())
	}
	if fi2, err := os.Stat(path); err != nil || fi2.Size() != fi.Size() {
		t.Fatalf("dry-run fsck changed the log (%d -> %d bytes, err %v)", fi.Size(), fi2.Size(), err)
	}

	// Repair truncates the frame away; the recheck is clean.
	rrep, err := store.Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrep.Repaired) == 0 {
		t.Fatalf("repair fixed nothing:\n%s", rrep.Render())
	}
	rep2, err := store.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() || rep2.SketchRecords != 2 {
		t.Fatalf("store not clean after repair:\n%s", rep2.Render())
	}

	// Both real sketches survived the surgery.
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range []string{e0.ID, e1.ID} {
		if _, err := s2.GetSketch(id); err != nil {
			t.Fatalf("GetSketch(%s): %v", id[:8], err)
		}
	}
	if st := s2.SketchStats(); st.Rebuilds != 0 {
		t.Fatalf("repair cost a good frame: %+v", st)
	}
}

// TestSketchLogFrameBehindUndecodableRebuilds: a healthy frame behind an
// undecodable one is distrusted with it. Fsck counts only the frame before
// the corruption, repair truncates the rest, and the sketch whose frame
// rode behind it rebuilds from its blob.
func TestSketchLogFrameBehindUndecodableRebuilds(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e0, _, err := s.Put("w", store.LabelNormal, "0", testProfile(13))
	if err != nil {
		t.Fatal(err)
	}
	e1, _, err := s.Put("w", store.LabelNormal, "1", testProfile(14))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Wedge an undecodable frame between the two healthy ones.
	path := filepath.Join(dir, "sketches.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := 8 + 8 + int(binary.LittleEndian.Uint32(raw[8:12]))
	wedged := append(append(append([]byte(nil), raw[:second]...),
		sketchFrame([]byte("wedged between two healthy frames"))...), raw[second:]...)
	if err := os.WriteFile(path, wedged, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := store.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.SketchRecords != 1 {
		t.Fatalf("fsck of the wedged log: %d frames, clean=%v:\n%s",
			rep.SketchRecords, rep.Clean(), rep.Render())
	}
	if _, err := store.Repair(dir); err != nil {
		t.Fatal(err)
	}

	// The frame behind the corruption is gone with it; its sketch rebuilds.
	s3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if !s3.Recovery().Clean() {
		t.Fatalf("unclean reopen after repair:\n%s", s3.Recovery().Render())
	}
	if _, err := s3.GetSketch(e0.ID); err != nil {
		t.Fatal(err)
	}
	if st := s3.SketchStats(); st.Rebuilds != 0 {
		t.Fatalf("frame before the corruption lost: %+v", st)
	}
	if _, err := s3.GetSketch(e1.ID); err != nil {
		t.Fatal(err)
	}
	if st := s3.SketchStats(); st.Rebuilds != 1 {
		t.Fatalf("frame behind the corruption not rebuilt from its blob: %+v", st)
	}
}

// TestSketchLogBadHeaderQuarantined: a sketch log whose header is garbage is
// quarantined whole — it is derived data, so nothing is lost — and a fresh
// log takes its place.
func TestSketchLogBadHeaderQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := s.Put("w", store.LabelNormal, "0", testProfile(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "sketches.log")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 8)
	copy(hdr, "XXXX")
	binary.LittleEndian.PutUint32(hdr[4:], 999)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Clean() || len(rec.Quarantined) != 1 || rec.Quarantined[0] != "sketches.log" {
		t.Fatalf("recovery: %s", rec.Render())
	}
	if rec.DroppedRecords != 0 {
		t.Fatalf("quarantining derived data dropped %d records", rec.DroppedRecords)
	}
	if _, err := s2.GetSketch(e.ID); err != nil {
		t.Fatal(err)
	}
	if st := s2.SketchStats(); st.Rebuilds != 1 || st.Indexed != 1 {
		t.Fatalf("sketch not rebuilt into the fresh log: %+v", st)
	}
}

// openCounter counts the read handles opened on, and closed for, one file.
type openCounter struct {
	faultfs.FS
	name           string
	opened, closed atomic.Int64
}

func (c *openCounter) Open(name string) (faultfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil || filepath.Base(name) != c.name {
		return f, err
	}
	c.opened.Add(1)
	return countedFile{f, c}, nil
}

type countedFile struct {
	faultfs.File
	c *openCounter
}

func (f countedFile) Close() error {
	f.c.closed.Add(1)
	return f.File.Close()
}

// TestSketchLogReadHandleShared: sketch-cache misses, from several
// goroutines at once, read the log through one shared handle, opened on
// the first miss and released by Close.
func TestSketchLogReadHandleShared(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := int64(0); seed < 8; seed++ {
		e, _, err := s.Put("w", store.LabelNormal, strconv.FormatInt(seed, 10), testProfile(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fsys := &openCounter{FS: faultfs.NewOS(), name: "sketches.log"}
	s2, err := store.Open(dir, store.Options{NoSync: true, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	atOpen := fsys.opened.Load() // Open's recovery and index scan
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ids {
				id := ids[(k+2*g)%len(ids)]
				if sk, err := s2.GetSketch(id); err != nil {
					t.Error(err)
				} else if sk.BlobID != id {
					t.Errorf("GetSketch(%s) returned the sketch of %s", id, sk.BlobID)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s2.SketchStats(); st.Misses < int64(len(ids)) || st.Rebuilds != 0 {
		t.Fatalf("stats %+v, want at least %d misses served from the log", st, len(ids))
	}
	if n := fsys.opened.Load() - atOpen; n != 1 {
		t.Errorf("sketch-cache misses opened the sketch log %d times, want once", n)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if o, c := fsys.opened.Load(), fsys.closed.Load(); o != c {
		t.Errorf("sketch log read handles: %d opened, %d closed", o, c)
	}
}

// TestSketchLogReadKeepsNoBuffer: GetSketch reads a frame of the sketch log
// into a pooled buffer and hands it back once decoded. After 65 pushes the
// first sketch has left the 64-entry sketch cache, so it is read back from
// sketches.log; overwriting pooled buffers of the frame's size class then
// must not change it: it still encodes to the logged frame's bytes.
func TestSketchLogReadKeepsNoBuffer(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var first string
	for seed := int64(0); seed < 65; seed++ {
		e, _, err := s.Put("w", store.LabelNormal, strconv.FormatInt(seed, 10), testProfile(seed))
		if err != nil {
			t.Fatal(err)
		}
		if seed == 0 {
			first = e.ID
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Frames are logged in push order: the first follows the 8-byte header.
	log, err := os.ReadFile(filepath.Join(dir, "sketches.log"))
	if err != nil {
		t.Fatal(err)
	}
	size := binary.LittleEndian.Uint32(log[8:12])
	logged := log[16 : 16+size]

	before := s.SketchStats()
	sk, err := s.GetSketch(first)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.SketchStats(); st.Misses != before.Misses+1 || st.Rebuilds != before.Rebuilds {
		t.Fatalf("GetSketch did not read the sketch from the log: %+v -> %+v", before, st)
	}
	for i := 0; i < 8; i++ {
		b := obs.GetBuffer(len(logged))[:len(logged)]
		for j := range b {
			b[j] = 0xff
		}
		obs.PutBuffer(b)
	}
	if sk.BlobID != first {
		t.Fatalf("sketch read back as %q, want %q", sk.BlobID, first)
	}
	if got, _ := profilefmt.MarshalSketch(sk); !bytes.Equal(got, logged) {
		t.Fatalf("sketch read from the log no longer encodes to its frame:\n%x\n%x", got, logged)
	}
}
