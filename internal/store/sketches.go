package store

// Sketch persistence: alongside the segments, the store keeps
// <dir>/sketches.log — an append-only log of per-blob variable sketches
// (internal/sketch), folded from each profile at ingest. The incremental
// diagnosis path reads only these sketches, never the raw blobs, so
// re-diagnosing a workload with one new run touches kilobytes instead of
// re-decoding the whole corpus.
//
// The log is an append-only file like the segments (applog.go): an 8-byte
// header ("VSKL" magic + version), then one CRC32C frame per sketch, the
// payload being the canonical profilefmt sketch encoding. Sketches are
// derived data, so a push does not wait for its sketch: the fold runs on
// after the ack, and its frame is appended in manifest order and without
// fsync (Flush, Close and Health sync the log). A crash may therefore lose
// the sketch frames of acked pushes, a failed sketch append never fails
// the push, recovery truncates a torn tail (or quarantines the whole file
// on a bad header) without dropping any manifest record, and a missing or
// incomplete log is rebuilt lazily — GetSketch re-folds from the raw blob
// and re-appends, so a store created before sketches existed upgrades in
// place. Recovery reads and decodes the log once, and Open indexes the
// frames it kept.

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"vprof/internal/faultfs"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
)

const (
	sketchLogName   = "sketches.log"
	maxSketchFrame  = 64 << 20 // sanity bound on one framed sketch
	sketchCacheSize = 64
	// maxPendingFolds bounds the folds that run on after their push acked.
	// A push that finds this many queued waits for its own fold to log
	// before it acks, so a burst of pushes cannot pile up fold goroutines
	// and the decoded profiles they hold.
	maxPendingFolds = 8
)

// sketchRef locates one sketch frame's payload in the log.
type sketchRef struct {
	offset int64
	size   int64
}

// foldSketch folds a profile into the sketch of blob id and encodes it.
// It needs no lock; a nil payload means the sketch did not encode.
func foldSketch(id string, p *sampler.Profile) (*sketch.Profile, []byte) {
	sk := sketch.FromProfile(p)
	sk.BlobID = id
	payload, err := profilefmt.MarshalSketch(sk)
	if err != nil {
		return sk, nil
	}
	return sk, payload
}

// fold is the sketch fold of one pushed blob, from the push's decode until
// its frame is on the sketch log.
type fold struct {
	id     string
	sk     *sketch.Profile
	frame  []byte        // nil when the sketch did not encode
	folded chan struct{} // closed once sk and frame are set
	logged chan struct{} // closed once the frame is appended or dropped
}

// testHookFold, when set, runs at the start of every fold goroutine; tests
// use it to hold folds pending.
var testHookFold func()

// runFold folds p into f and logs every finished fold at the head of the
// queue. A fold whose push did not ack is never queued and logs nothing.
func (s *Store) runFold(f *fold, p *sampler.Profile) {
	if testHookFold != nil {
		testHookFold()
	}
	f.sk, f.frame = foldSketch(f.id, p)
	close(f.folded)
	s.mu.Lock()
	s.logFoldsLocked()
	s.mu.Unlock()
}

// foldOf returns the queued fold of blob id, if any (mu held, read or
// write).
func (s *Store) foldOf(id string) *fold {
	for _, f := range s.folds {
		if f.id == id {
			return f
		}
	}
	return nil
}

// queueFoldLocked queues the fold of a push whose manifest record was just
// appended, so its frame appends in manifest order, unless the log holds
// the blob's sketch or another fold of it is queued by now. It reports
// whether it queued the fold.
func (s *Store) queueFoldLocked(f *fold) bool {
	if _, ok := s.sketchIdx[f.id]; ok || s.foldOf(f.id) != nil {
		return false
	}
	s.folds = append(s.folds, f)
	s.logFoldsLocked()
	return true
}

// logFoldsLocked appends the frames of the finished folds at the head of
// the queue and releases their waiters. Sketches are derived data: an
// append failure is absorbed (GetSketch rebuilds on demand), never
// failing an acknowledged push.
func (s *Store) logFoldsLocked() {
	for len(s.folds) > 0 && isClosed(s.folds[0].folded) {
		f := s.folds[0]
		_ = s.appendSketchLocked(f.id, f.sk, f.frame)
		close(f.logged)
		s.folds = slices.Delete(s.folds, 0, 1)
	}
}

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// waitFoldsLocked waits until every fold queued at the call has logged its
// frame. It releases mu while it waits and holds it again on return.
func (s *Store) waitFoldsLocked() {
	if n := len(s.folds); n > 0 {
		last := s.folds[n-1] // folds log in queue order
		s.mu.Unlock()
		<-last.logged
		s.mu.Lock()
	}
}

// appendSketchLocked appends the frame of a folded sketch, unless the log
// already indexes one for id. Best-effort: sketches are derived data, so a
// failure only reports the error — the caller must not fail the push over
// it. A sketch log whose rollback failed takes no more frames until the
// store reopens; sketches then rebuild from their blobs.
func (s *Store) appendSketchLocked(id string, sk *sketch.Profile, payload []byte) error {
	if s.sketchLog == nil {
		return errors.New("store: sketch log not open")
	}
	if _, ok := s.sketchIdx[id]; ok {
		return nil
	}
	if payload == nil {
		return errors.New("store: sketch did not encode")
	}
	if len(payload) > maxSketchFrame {
		return fmt.Errorf("store: sketch frame %d bytes exceeds bound", len(payload))
	}
	off, err := s.sketchLog.appendFrame(payload)
	if err != nil {
		return err
	}
	s.sketchIdx[id] = sketchRef{offset: off, size: int64(len(payload))}
	s.sketches.Put(id, sk)
	s.m.sketchWrites.Inc()
	return nil
}

// GetSketch returns the sketch for a stored blob: from the in-memory cache,
// else from the pending fold of an acked push, once it finishes, else the
// sketch log, else — the upgrade path for stores that predate sketches, or
// whose log lost the frame — by decoding the raw blob, folding it, and
// persisting the result so the rebuild happens once. Sketches served from
// the cache, a fold or the log never touch the raw blob or the
// decoded-profile cache.
func (s *Store) GetSketch(id string) (*sketch.Profile, error) {
	if sk, ok := s.sketches.Get(id); ok {
		s.m.sketchHits.Inc()
		return sk, nil
	}
	s.m.sketchMisses.Inc()
	s.mu.Lock()
	if f := s.foldOf(id); f != nil {
		s.mu.Unlock()
		<-f.logged
		return f.sk, nil
	}
	ref, ok := s.sketchIdx[id]
	if !ok {
		s.mu.Unlock()
		return s.rebuildSketch(id)
	}
	r, err := s.readerLocked(sketchLogName)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	payload := make([]byte, ref.size)
	if _, err := r.ReadAt(payload, ref.offset); err != nil {
		return nil, fmt.Errorf("store: read sketch %s: %w", id, err)
	}
	sk, err := profilefmt.UnmarshalSketch(payload)
	if err != nil || sk.BlobID != id {
		// The frame passed its CRC at open but no longer decodes to this
		// blob's sketch (e.g. external truncation since): fall back to a
		// rebuild from the raw blob.
		return s.rebuildSketch(id)
	}
	s.sketches.Put(id, sk)
	return sk, nil
}

// rebuildSketch is GetSketch's upgrade path: fold the sketch from the raw
// blob and persist it (best effort) so subsequent reads hit the log.
func (s *Store) rebuildSketch(id string) (*sketch.Profile, error) {
	p, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	sk, payload := foldSketch(id, p)
	if !s.sketches.Put(id, sk) { // raced with another fill
		return sk, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sketchRebuilt++
	s.m.sketchRebuilds.Inc()
	// Persisting is best-effort; serve the folded sketch either way. A
	// frame already indexed but no longer decodable is not appended again.
	_ = s.appendSketchLocked(id, sk, payload)
	return sk, nil
}

// SketchStats reports sketch cache and rebuild counters.
type SketchStats struct {
	Hits, Misses, Rebuilds int64
	Indexed                int
}

// SketchStats returns sketch-path effectiveness counters.
func (s *Store) SketchStats() SketchStats {
	c := s.sketches.Stats()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return SketchStats{
		Hits:     c.Hits,
		Misses:   c.Misses,
		Rebuilds: s.sketchRebuilt,
		Indexed:  len(s.sketchIdx),
	}
}

// recoverSketchLog validates <dir>/sketches.log and returns its frames,
// each blob id's last one: a bad header quarantines the whole file (it is
// derived data — the sketches rebuild from the blobs), and the first frame
// that is torn, fails its CRC or does not decode as a sketch is truncated
// away with everything behind it. Runs as part of recoverDir; Open
// indexes the frames it returns.
func recoverSketchLog(fsys faultfs.FS, dir string, rep *FsckReport, apply bool) (map[string]sketchRef, error) {
	path := filepath.Join(dir, sketchLogName)
	data, err := readFileVia(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("store: unrecoverable: read sketch log: %w", err)
	}
	if data == nil {
		return nil, nil
	}
	if !sketchHeader.matches(data) {
		rep.Issues = append(rep.Issues, fmt.Sprintf("%s: bad header", sketchLogName))
		return nil, quarantine(fsys, dir, sketchLogName, rep, apply)
	}
	frames := map[string]sketchRef{}
	off := int64(headerSize)
	for off < int64(len(data)) {
		payload, err := readFrame(data[off:])
		if err != nil {
			break
		}
		// A CRC-valid frame that no longer decodes as a sketch is
		// corruption too: fsck reports it and repair truncates it away.
		sk, err := profilefmt.UnmarshalSketch(payload)
		if err != nil {
			break
		}
		frames[sk.BlobID] = sketchRef{offset: off + frameHeaderSize, size: int64(len(payload))}
		off += frameHeaderSize + int64(len(payload))
		rep.SketchRecords++
	}
	if torn := int64(len(data)) - off; torn > 0 {
		rep.TruncatedBytes += torn
		rep.Issues = append(rep.Issues,
			fmt.Sprintf("%s: %d torn/corrupt byte(s) after %d whole frame(s)", sketchLogName, torn, rep.SketchRecords))
		if apply {
			if err := fsys.Truncate(path, off); err != nil {
				return nil, fmt.Errorf("store: unrecoverable: truncate sketch log: %w", err)
			}
			rep.Repaired = append(rep.Repaired, fmt.Sprintf("truncated %s to %d bytes", sketchLogName, off))
		}
	}
	return frames, nil
}
