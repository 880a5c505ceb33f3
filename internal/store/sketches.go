package store

// Sketch persistence: alongside the segments, the store keeps
// <dir>/sketches.log — an append-only log of per-blob variable sketches
// (internal/sketch), folded from each profile at ingest. The incremental
// diagnosis path reads only these sketches, never the raw blobs, so
// re-diagnosing a workload with one new run touches kilobytes instead of
// re-decoding the whole corpus.
//
// The log mirrors the segment discipline: an 8-byte header ("VSKL" magic +
// version), then one CRC32C frame per sketch ([size][crc][payload], the
// payload being the canonical profilefmt sketch encoding). Sketches are
// derived data: a failed sketch append never fails the push, recovery
// truncates a torn tail (or quarantines the whole file on a bad header)
// without dropping any manifest record, and a missing or incomplete log is
// rebuilt lazily — GetSketch re-folds from the raw blob and re-appends, so
// a store created before sketches existed upgrades in place.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"vprof/internal/faultfs"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
)

const (
	sketchLogName   = "sketches.log"
	sketchMagic     = "VSKL"
	sketchVersion   = 1
	sketchHdrSize   = 8
	sketchFrameHdr  = 8
	maxSketchFrame  = 64 << 20 // sanity bound on one framed sketch
	sketchCacheSize = 64
)

func sketchLogHeader() []byte {
	h := make([]byte, sketchHdrSize)
	copy(h, sketchMagic)
	binary.LittleEndian.PutUint32(h[4:], sketchVersion)
	return h
}

func (s *Store) sketchLogPath() string { return filepath.Join(s.dir, sketchLogName) }

// sketchRef locates one sketch frame's payload in the log.
type sketchRef struct {
	offset int64
	size   int64
}

// openSketchLog opens (creating if absent) the sketch log for append and
// indexes its surviving frames. Recovery ran first, so every frame present
// passes its CRC; frames whose blob is unknown to the manifest are ignored.
// Called from Open before the store is shared.
func (s *Store) openSketchLog() error {
	path := s.sketchLogPath()
	if _, err := s.fsys.Stat(path); err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			return err
		}
		if err := s.createSketchLog(path); err != nil {
			return err
		}
	}
	data, err := readFileVia(s.fsys, path)
	if err != nil {
		return err
	}
	s.sketchIdx = map[string]sketchRef{}
	off := int64(sketchHdrSize)
	for off+sketchFrameHdr <= int64(len(data)) {
		size := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		payload := data[off+sketchFrameHdr : off+sketchFrameHdr+size]
		if sk, err := profilefmt.UnmarshalSketch(payload); err == nil {
			if _, known := s.blobs[sk.BlobID]; known {
				s.sketchIdx[sk.BlobID] = sketchRef{offset: off + sketchFrameHdr, size: size}
			}
		}
		off += sketchFrameHdr + size
	}
	f, err := s.fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	s.sketchLog, s.sketchLogSize = f, st.Size()
	return nil
}

// createSketchLog births the log via temp-file + rename, like segments.
func (s *Store) createSketchLog(path string) (err error) {
	tmp := path + ".tmp"
	defer func() {
		if err != nil {
			s.fsys.Remove(tmp)
		}
	}()
	f, err := s.fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(sketchLogHeader()); err != nil {
		f.Close()
		return err
	}
	if err = f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return s.fsys.Rename(tmp, path)
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

// appendSketchLocked appends the frame of a folded sketch, unless the log
// already indexes one for id. Best-effort: sketches are derived data, so
// any failure only truncates the partial frame away and reports the error
// — the caller must not fail the push over it.
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
	frame := make([]byte, sketchFrameHdr+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[sketchFrameHdr:], payload)
	start := s.sketchLogSize
	if n, err := s.sketchLog.Write(frame); err != nil || n != len(frame) {
		if terr := s.sketchLog.Truncate(start); terr == nil {
			s.sketchLogSize = start
		}
		if err == nil {
			err = fmt.Errorf("store: short sketch write")
		}
		return err
	}
	if !s.opts.NoSync {
		if err := s.sketchLog.Sync(); err != nil {
			if terr := s.sketchLog.Truncate(start); terr == nil {
				s.sketchLogSize = start
			}
			return err
		}
	}
	s.sketchLogSize = start + int64(len(frame))
	s.sketchIdx[id] = sketchRef{offset: start + sketchFrameHdr, size: int64(len(payload))}
	s.sketches.Put(id, sk)
	s.m.sketchWrites.Inc()
	return nil
}

// GetSketch returns the sketch for a stored blob: from the in-memory cache,
// else the sketch log, else — the upgrade path for stores that predate
// sketches — by decoding the raw blob, folding it, and persisting the result
// so the rebuild happens once. Sketches served from the cache or the log
// never touch the raw blob or the decoded-profile cache.
func (s *Store) GetSketch(id string) (*sketch.Profile, error) {
	if sk, ok := s.sketches.Get(id); ok {
		s.m.sketchHits.Inc()
		return sk, nil
	}
	s.m.sketchMisses.Inc()
	s.mu.Lock()
	ref, ok := s.sketchIdx[id]
	if !ok {
		s.mu.Unlock()
		return s.rebuildSketch(id)
	}
	r, err := s.sketchReaderLocked()
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

// sketchReaderLocked returns the shared read handle of the sketch log,
// opening it on first use; ReadAt is safe for concurrent readers, and
// Close releases it.
func (s *Store) sketchReaderLocked() (faultfs.File, error) {
	if s.sketchReader == nil {
		r, err := s.fsys.Open(s.sketchLogPath())
		if err != nil {
			return nil, err
		}
		s.sketchReader = r
	}
	return s.sketchReader, nil
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

// recoverSketchLog validates <dir>/sketches.log: bad header quarantines the
// whole file (it is derived data — the sketches rebuild from the blobs), a
// torn or corrupt tail is truncated back to the last whole frame. Runs as
// part of recoverDir, before Open replays the log.
func recoverSketchLog(fsys faultfs.FS, dir string, rep *FsckReport, o recoverOpts) error {
	path := filepath.Join(dir, sketchLogName)
	data, err := readFileVia(fsys, path)
	if err != nil {
		return fmt.Errorf("store: unrecoverable: read sketch log: %w", err)
	}
	if data == nil {
		return nil
	}
	if len(data) < sketchHdrSize || string(data[:4]) != sketchMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != sketchVersion {
		rep.Issues = append(rep.Issues, fmt.Sprintf("%s: bad header", sketchLogName))
		return quarantine(fsys, dir, sketchLogName, rep, o)
	}
	off := int64(sketchHdrSize)
	frames := 0
	for {
		if off == int64(len(data)) {
			rep.SketchRecords = frames
			return nil // clean end
		}
		if off+sketchFrameHdr > int64(len(data)) {
			break // torn frame header
		}
		size := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if size <= 0 || size > maxSketchFrame || off+sketchFrameHdr+size > int64(len(data)) {
			break // torn or nonsense frame
		}
		payload := data[off+sketchFrameHdr : off+sketchFrameHdr+size]
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if crc32.Checksum(payload, castagnoli) != want {
			break // corrupt payload: distrust it and everything after
		}
		if o.verify {
			// A CRC-valid frame that no longer decodes as a sketch is
			// corruption the replay path would silently skip; surface it
			// here so fsck reports it and repair truncates it away.
			if _, err := profilefmt.UnmarshalSketch(payload); err != nil {
				break
			}
		}
		off += sketchFrameHdr + size
		frames++
	}
	torn := int64(len(data)) - off
	rep.SketchRecords = frames
	rep.TruncatedBytes += torn
	rep.Issues = append(rep.Issues,
		fmt.Sprintf("%s: %d torn/corrupt byte(s) after %d whole frame(s)", sketchLogName, torn, frames))
	if o.apply {
		if err := fsys.Truncate(path, off); err != nil {
			return fmt.Errorf("store: unrecoverable: truncate sketch log: %w", err)
		}
		rep.Repaired = append(rep.Repaired, fmt.Sprintf("truncated %s to %d bytes", sketchLogName, off))
	}
	return nil
}
