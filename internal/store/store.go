// Package store is the persistent profile store behind the continuous
// profiling service: a content-addressed, append-only segment log holding
// profilefmt bundles, with an in-memory index that is rebuilt from a
// manifest on open.
//
// Layout on disk:
//
//	<dir>/MANIFEST            — one CRC32C-framed record per line: links a
//	                            (workload, label, run) key to a content hash
//	                            + segment offset
//	<dir>/segment-000000.seg  — 8-byte header, then framed bundle blobs
//	<dir>/segment-000001.seg  — next segment after rollover, …
//	<dir>/sketches.log        — 8-byte header, then one framed sketch per blob
//	<dir>/quarantine/         — files recovery refused to trust
//
// Blobs are keyed by their SHA-256: pushing the same profile twice stores
// one copy, and a re-read blob is verified against its hash before being
// decoded. Entries (the (workload, label, run) → hash links) are what the
// manifest accumulates; a duplicate entry is a no-op.
//
// Crash safety. The three kinds of file share one append-only discipline
// (applog.go): a file is born via temp-file + rename, so a half-created
// file can never be mistaken for a real one; every append is one Write,
// fsynced before it returns (the sketch log's are synced by Flush, Close
// and Health instead); and a failed append is truncated away. A push
// appends its blob frame to the active segment, then its manifest record,
// and is then acknowledged. The hash runs on a goroutine beside the decode
// and the sketch fold on one beside the appends; the fold's frame goes to
// the sketch log after the ack, in manifest order, and failing to log it
// never fails the push. A crash at any point therefore loses at most
// unacknowledged work and sketch frames, which rebuild: recovery (run
// inside Open, or explicitly via Fsck/Repair) replays the manifest, stops
// at the first record that fails its CRC, truncates the torn tails of the
// manifest, the segments and the sketch log, and quarantines — never
// loads — any segment whose framed blobs fail their checksums. All file operations go through a faultfs.FS,
// so the crash-replay test matrix can cut the power at every single write.
//
// The store also keeps
//   - a rolling baseline corpus per workload: the most recent BaselineCap
//     normal runs, what the diagnosis endpoint compares candidates against;
//   - a bounded cache of decoded profiles, so repeated diagnoses of the
//     same runs do not re-decode their histograms and value samples.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vprof/internal/faultfs"
	"vprof/internal/obs"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
)

// ErrInvalidProfile wraps every decode rejection at ingest, so API layers
// can map "the uploaded bundle is garbage" to a typed client error.
var ErrInvalidProfile = errors.New("store: invalid profile bundle")

// ErrUnavailable marks a backend that is temporarily unable to serve the
// request — a cluster write that missed its quorum, or every replica of a
// shard unreachable. API layers map it to 503 with a Retry-After so
// idempotent clients retry instead of surfacing a hard failure.
var ErrUnavailable = errors.New("store: backend unavailable")

// errClosed is what a closed store answers to a write, a flush or a
// health check.
var errClosed = errors.New("store: closed")

// Label classifies an entry: part of the normal baseline corpus, or a
// candidate (suspected-buggy) run to diagnose against it.
type Label string

const (
	LabelNormal    Label = "normal"
	LabelCandidate Label = "candidate"
)

// ParseLabel validates a label string from an API boundary.
func ParseLabel(s string) (Label, error) {
	switch Label(s) {
	case LabelNormal, LabelCandidate:
		return Label(s), nil
	case "buggy": // accepted alias: the paper's name for the candidate side
		return LabelCandidate, nil
	}
	return "", fmt.Errorf("store: unknown label %q (want normal, candidate or buggy)", s)
}

// Entry is one (workload, label, run) key resolved to a stored blob.
type Entry struct {
	ID       string // content hash of the blob, hex
	Workload string
	Label    Label
	Run      string
	Size     int64
	// Seq is the manifest position; entries replay in Seq order.
	Seq int
}

// blobRef locates a blob inside a segment.
type blobRef struct {
	segment int
	offset  int64
	size    int64
}

// Options tunes a store.
type Options struct {
	// BaselineCap bounds the rolling baseline corpus per workload
	// (default 16 most recent normal runs).
	BaselineCap int
	// CacheCap bounds the decoded-profile cache (default 64 profiles).
	CacheCap int
	// SegmentSize triggers rollover to a new segment file once the
	// current one exceeds it (default 64 MiB).
	SegmentSize int64
	// FS is the filesystem the store persists through (default: the real
	// one). The crash-replay tests substitute a faultfs.Injector.
	FS faultfs.FS
	// NoSync skips the per-append fsyncs. Acknowledged pushes are then no
	// longer crash-durable; only benchmarks should set this.
	NoSync bool
	// Metrics, when non-nil, receives the store's instrumentation
	// (segments written, ingest bytes, dedup hits, decoded-cache
	// hits/misses, recovery counters). A nil registry costs nil-receiver
	// no-ops.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.BaselineCap <= 0 {
		o.BaselineCap = 16
	}
	if o.CacheCap <= 0 {
		o.CacheCap = 64
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = 64 << 20
	}
	if o.FS == nil {
		o.FS = faultfs.NewOS()
	}
	return o
}

// CacheStats reports decoded-cache effectiveness.
type CacheStats struct {
	Hits, Misses int64
	Entries      int
}

// Store is safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	fsys faultfs.FS

	mu       sync.RWMutex
	blobs    map[string]blobRef  // content hash → location
	entries  map[string]*Entry   // entry key (workload|label|run) → entry
	byWl     map[string][]*Entry // workload → entries in Seq order
	seq      int
	manifest *appendLog
	segID    int
	seg      *appendLog              // current segment
	readers  map[string]faultfs.File // shared read handles by file name

	recovery *FsckReport // what Open's recovery found and fixed

	decoded *Cache[*sampler.Profile]

	// Sketch log state (sketches.go): per-blob variable sketches the
	// incremental diagnosis path reads instead of the raw blobs.
	sketchLog     *appendLog
	sketchIdx     map[string]sketchRef
	folds         []*fold // acked pushes' pending folds, in manifest order
	sketches      *Cache[*sketch.Profile]
	sketchRebuilt int64

	m storeMetrics
}

// storeMetrics holds the store's nil-safe instrumentation handles.
type storeMetrics struct {
	segments       *obs.Counter
	ingestBytes    *obs.Counter
	dedupHits      *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEntries   *obs.Gauge
	quarantined    *obs.Counter
	recoveredDrops *obs.Counter
	recoveredBytes *obs.Counter
	sketchWrites   *obs.Counter
	sketchHits     *obs.Counter
	sketchMisses   *obs.Counter
	sketchRebuilds *obs.Counter
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	if reg == nil {
		return storeMetrics{}
	}
	return storeMetrics{
		segments: reg.Counter("vprof_store_segments_written_total",
			"Segment files opened for append (including rollovers)."),
		ingestBytes: reg.Counter("vprof_store_ingest_bytes_total",
			"Bytes of profile bundles appended to segments."),
		dedupHits: reg.Counter("vprof_store_dedup_hits_total",
			"Ingests resolved without a write: identical content already stored."),
		cacheHits: reg.Counter("vprof_store_decode_cache_hits_total",
			"Profile reads served from the decoded-profile cache."),
		cacheMisses: reg.Counter("vprof_store_decode_cache_misses_total",
			"Profile reads that had to re-read and decode a blob."),
		cacheEntries: reg.Gauge("vprof_store_decoded_cache_entries",
			"Profiles currently held by the decoded-profile cache."),
		quarantined: reg.Counter("vprof_store_quarantined_segments_total",
			"Segment files recovery moved to quarantine/ instead of loading."),
		recoveredDrops: reg.Counter("vprof_store_recovery_dropped_records_total",
			"Manifest records dropped during recovery (torn tail or quarantined segment)."),
		recoveredBytes: reg.Counter("vprof_store_recovery_truncated_bytes_total",
			"Torn bytes trimmed from the manifest and segments during recovery."),
		sketchWrites: reg.Counter("vprof_store_sketch_writes_total",
			"Sketch frames appended to the sketch log."),
		sketchHits: reg.Counter("vprof_store_sketch_cache_hits_total",
			"Sketch reads served from the in-memory sketch cache."),
		sketchMisses: reg.Counter("vprof_store_sketch_cache_misses_total",
			"Sketch reads that had to hit the sketch log or rebuild."),
		sketchRebuilds: reg.Counter("vprof_store_sketch_rebuilds_total",
			"Sketches rebuilt from raw blobs (stores predating the sketch log)."),
	}
}

// Open creates or reopens a store rooted at dir. Recovery runs first: the
// manifest is replayed up to its first corrupt record, torn tails are
// truncated, and corrupt segments are quarantined rather than loaded — an
// unclean shutdown never prevents opening. What recovery found is available
// via Recovery.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rep, found, err := recoverDir(fsys, dir, true)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		fsys:      fsys,
		blobs:     map[string]blobRef{},
		entries:   map[string]*Entry{},
		byWl:      map[string][]*Entry{},
		readers:   map[string]faultfs.File{},
		decoded:   NewCache[*sampler.Profile](opts.CacheCap),
		sketchIdx: map[string]sketchRef{},
		sketches:  NewCache[*sketch.Profile](sketchCacheSize),
		recovery:  rep,
		m:         newStoreMetrics(opts.Metrics),
	}
	s.m.quarantined.Add(float64(len(rep.Quarantined)))
	s.m.recoveredDrops.Add(float64(rep.DroppedRecords))
	s.m.recoveredBytes.Add(float64(rep.TruncatedBytes))
	for _, rec := range found.records {
		s.indexLocked(rec.entry, rec.ref)
		if rec.ref.segment > s.segID {
			s.segID = rec.ref.segment
		}
	}
	// Recovery validated and decoded every sketch frame it kept; frames of
	// blobs the manifest does not know are ignored.
	for id, ref := range found.sketches {
		if _, known := s.blobs[id]; known {
			s.sketchIdx[id] = ref
		}
	}
	if onDisk := maxSegmentID(fsys, dir); onDisk > s.segID {
		s.segID = onDisk
	}
	if s.manifest, err = s.openLog(manifestName, nil); err != nil {
		return nil, err
	}
	if s.seg, err = s.openLog(segmentName(s.segID), &segHeader); err != nil {
		s.Close()
		return nil, err
	}
	s.m.segments.Inc()
	if s.sketchLog, err = s.openLog(sketchLogName, &sketchHeader); err != nil {
		s.Close()
		return nil, err
	}
	s.sketchLog.noSync = true // Flush, Close and Health sync it
	return s, nil
}

// Recovery reports what Open's recovery pass found and repaired. A cleanly
// shut down store yields a clean report.
func (s *Store) Recovery() *FsckReport { return s.recovery }

const manifestName = "MANIFEST"

func segmentName(id int) string { return fmt.Sprintf("segment-%06d.seg", id) }

// maxSegmentID scans dir for the highest-numbered segment file, so a
// rollover that crashed between creating the file and referencing it does
// not get overwritten by a lower-numbered append.
func maxSegmentID(fsys faultfs.FS, dir string) int {
	max := 0
	des, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, de := range des {
		var id int
		if _, err := fmt.Sscanf(de.Name(), "segment-%06d.seg", &id); err == nil &&
			de.Name() == segmentName(id) && id > max {
			max = id
		}
	}
	return max
}

// Manifest record (one line):
//
//	v2 <hash> <segment> <offset> <size> <workload> <label> <run> <crc32c>
//
// workload/run are query-escaped so they cannot smuggle separators, and the
// trailing CRC32C (of everything before it) frames the record: a torn or
// bit-flipped line fails its checksum and recovery stops there.
func formatManifestLine(e *Entry, ref blobRef) string {
	payload := fmt.Sprintf("v2 %s %d %d %d %s %s %s",
		e.ID, ref.segment, ref.offset, ref.size,
		url.QueryEscape(e.Workload), e.Label, url.QueryEscape(e.Run))
	return fmt.Sprintf("%s %08x\n", payload, crc32.Checksum([]byte(payload), castagnoli))
}

func parseManifestLine(line string) (*Entry, blobRef, error) {
	line = strings.TrimSuffix(line, "\n")
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return nil, blobRef{}, fmt.Errorf("store: unframed manifest record %q", line)
	}
	payload, crcHex := line[:i], line[i+1:]
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil || len(crcHex) != 8 {
		return nil, blobRef{}, fmt.Errorf("store: bad manifest record checksum field %q", crcHex)
	}
	if got := crc32.Checksum([]byte(payload), castagnoli); got != uint32(want) {
		return nil, blobRef{}, fmt.Errorf("store: manifest record checksum mismatch (%08x != %08x)", got, want)
	}
	fields := strings.Fields(payload)
	if len(fields) != 8 || fields[0] != "v2" {
		return nil, blobRef{}, fmt.Errorf("store: bad manifest record %q", line)
	}
	var ref blobRef
	if _, err := fmt.Sscanf(fields[2]+" "+fields[3]+" "+fields[4], "%d %d %d",
		&ref.segment, &ref.offset, &ref.size); err != nil {
		return nil, blobRef{}, err
	}
	wl, err := url.QueryUnescape(fields[5])
	if err != nil {
		return nil, blobRef{}, err
	}
	label, err := ParseLabel(fields[6])
	if err != nil {
		return nil, blobRef{}, err
	}
	run, err := url.QueryUnescape(fields[7])
	if err != nil {
		return nil, blobRef{}, err
	}
	if ref.segment < 0 || ref.offset < frameHeaderSize || ref.size <= 0 {
		return nil, blobRef{}, fmt.Errorf("store: bad blob ref in %q", line)
	}
	return &Entry{ID: fields[1], Workload: wl, Label: label, Run: run, Size: ref.size}, ref, nil
}

func entryKey(workload string, label Label, run string) string {
	return workload + "\x00" + string(label) + "\x00" + run
}

// indexLocked inserts an entry into the in-memory index (mu held, or during
// single-threaded replay).
func (s *Store) indexLocked(e *Entry, ref blobRef) {
	if _, ok := s.blobs[e.ID]; !ok {
		s.blobs[e.ID] = ref
	}
	key := entryKey(e.Workload, e.Label, e.Run)
	if old, ok := s.entries[key]; ok {
		// Re-push of an existing run: latest content wins.
		old.ID, old.Size = e.ID, e.Size
		return
	}
	e.Seq = s.seq
	s.seq++
	s.entries[key] = e
	s.byWl[e.Workload] = append(s.byWl[e.Workload], e)
}

// PutBlob validates, stores and indexes one encoded profile bundle. It
// returns only after the blob and its manifest record are fsynced — an
// acknowledged push survives a crash. The blob's sketch is folded on a
// goroutine started after the decode; the fold of an acked push may
// finish after the ack and then appends its frame to the sketch log,
// without fsync, in manifest order (GetSketch, Flush and Close wait for
// it). Every other goroutine PutBlob starts is joined before it returns,
// and the fold reads only the decoded profile, so the caller may reuse
// blob as soon as PutBlob returns. The returned bool is true when an
// identical entry (same key, same content) already existed and nothing
// was written.
func (s *Store) PutBlob(workload string, label Label, run string, blob []byte) (*Entry, bool, error) {
	if workload == "" || run == "" {
		return nil, false, fmt.Errorf("store: workload and run are required")
	}
	// The content hash runs next to the decode, which is the validation:
	// both finish before the first write.
	var id string
	hashed := make(chan struct{})
	go func() {
		sum := sha256.Sum256(blob)
		id = hex.EncodeToString(sum[:])
		close(hashed)
	}()
	p, err := profilefmt.Unmarshal(blob)
	<-hashed
	if err != nil {
		return nil, false, fmt.Errorf("store: reject invalid profile: %w (%w)", err, ErrInvalidProfile)
	}
	// Fold the sketch beside the appends, unless the sketch log holds it or
	// an acked push's fold of it is pending. The fold reads only p.
	s.mu.RLock()
	_, logged := s.sketchIdx[id]
	skip := logged || s.foldOf(id) != nil
	s.mu.RUnlock()
	var f *fold
	if !skip {
		f = &fold{id: id, folded: make(chan struct{}), logged: make(chan struct{})}
		go s.runFold(f, p)
	}

	s.mu.Lock()
	e, dup, err := s.putLocked(workload, label, run, id, p, blob)
	queued := f != nil && err == nil && !dup && s.queueFoldLocked(f)
	overBound := queued && len(s.folds) > maxPendingFolds
	s.mu.Unlock()
	switch {
	case overBound: // keeps the goroutines and profiles of a burst bounded
		<-f.logged
	case f != nil && !queued: // nothing will log it: a failed push or a dedup
		<-f.folded
		obs.PutBuffer(f.frame)
	}
	return e, dup, err
}

// putLocked appends the blob, unless stored, and the manifest record of a
// decoded push, and indexes its entry: once the record is durable, in the
// same lock hold, so entries index in manifest order.
func (s *Store) putLocked(workload string, label Label, run, id string, p *sampler.Profile, blob []byte) (*Entry, bool, error) {
	if s.seg == nil {
		return nil, false, errClosed
	}
	if err := s.wedgedLocked(); err != nil {
		return nil, false, fmt.Errorf("store: refusing writes after unrecoverable rollback failure: %w", err)
	}
	key := entryKey(workload, label, run)
	if old, ok := s.entries[key]; ok && old.ID == id {
		s.m.dedupHits.Inc()
		cp := *old
		return &cp, true, nil
	}
	ref, ok := s.blobs[id]
	fresh := false
	if !ok {
		var err error
		if ref, err = s.appendBlobLocked(blob); err != nil {
			return nil, false, err
		}
		fresh = true
		s.m.ingestBytes.Add(float64(len(blob)))
	} else {
		s.m.dedupHits.Inc()
	}
	e := &Entry{ID: id, Workload: workload, Label: label, Run: run, Size: int64(len(blob))}
	if err := s.appendManifestLocked(e, ref, fresh); err != nil {
		return nil, false, err
	}
	s.indexLocked(e, ref)
	s.cacheDecoded(id, p)
	cp := *s.entries[key]
	return &cp, false, nil
}

// appendManifestLocked appends one manifest record. If the append fails
// and the blob was freshly appended for this push, the blob frame is
// rolled back too, so an error leaves both files as they were before the
// push.
func (s *Store) appendManifestLocked(e *Entry, ref blobRef, freshBlob bool) error {
	if _, err := s.manifest.append([]byte(formatManifestLine(e, ref))); err != nil {
		if freshBlob {
			s.seg.truncate(ref.offset - frameHeaderSize)
		}
		return fmt.Errorf("store: append manifest record: %w", err)
	}
	return nil
}

// wedgedLocked is why the store refuses writes, if it does: a segment or
// the manifest whose rollback failed, so the file's tail no longer
// matches what the store tracks.
func (s *Store) wedgedLocked() error {
	if s.seg.wedged != nil {
		return s.seg.wedged
	}
	return s.manifest.wedged
}

// Put encodes and stores a profile (convenience over PutBlob).
func (s *Store) Put(workload string, label Label, run string, p *sampler.Profile) (*Entry, bool, error) {
	blob, err := profilefmt.Marshal(p)
	if err != nil {
		return nil, false, err
	}
	return s.PutBlob(workload, label, run, blob)
}

// appendBlobLocked appends a blob as one frame of the active segment,
// rolling over to a new segment first once the active one is full.
func (s *Store) appendBlobLocked(blob []byte) (blobRef, error) {
	if s.seg.size >= s.opts.SegmentSize {
		if err := s.rolloverLocked(); err != nil {
			return blobRef{}, err
		}
	}
	off, err := s.seg.appendFrame(blob)
	if err != nil {
		return blobRef{}, fmt.Errorf("store: append blob: %w", err)
	}
	return blobRef{segment: s.segID, offset: off, size: int64(len(blob))}, nil
}

// rolloverLocked seals the active segment and starts the next one. The
// next segment is created and opened before the old one is released, so a
// failure at any step leaves the old segment active and the store
// consistent — the rollover simply retries on the next append.
func (s *Store) rolloverLocked() error {
	next, err := s.openLog(segmentName(s.segID+1), &segHeader)
	if err != nil {
		return fmt.Errorf("store: rollover: %w", err)
	}
	if err := s.seg.f.Sync(); err != nil {
		next.f.Close()
		return fmt.Errorf("store: rollover: seal segment: %w", err)
	}
	if err := s.seg.f.Close(); err != nil {
		next.f.Close()
		// The old handle is gone either way; without a usable append
		// handle the store cannot safely continue.
		s.seg.wedged = fmt.Errorf("close sealed segment: %w", err)
		return fmt.Errorf("store: rollover: %w", err)
	}
	s.segID++
	s.seg = next
	s.m.segments.Inc()
	return nil
}

// Get returns the decoded profile stored under id, via the decoded cache.
func (s *Store) Get(id string) (*sampler.Profile, error) {
	if p, ok := s.decoded.Get(id); ok {
		s.m.cacheHits.Inc()
		return p, nil
	}
	s.m.cacheMisses.Inc()
	blob, err := s.GetBlob(id)
	if err != nil {
		return nil, err
	}
	p, err := profilefmt.Unmarshal(blob)
	if err != nil {
		return nil, fmt.Errorf("store: decode blob %s: %w", id, err)
	}
	s.cacheDecoded(id, p)
	return p, nil
}

// GetBlob returns the raw encoded bytes stored under id, verified against
// the content hash but not decoded. Replication copies blobs with it so a
// receiving replica stores the byte-identical frame (and therefore the same
// ID) as the sender.
func (s *Store) GetBlob(id string) ([]byte, error) {
	s.mu.Lock()
	ref, ok := s.blobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: no blob %s", id)
	}
	r, err := s.readerLocked(segmentName(ref.segment))
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	blob := make([]byte, ref.size)
	if _, err := r.ReadAt(blob, ref.offset); err != nil {
		return nil, fmt.Errorf("store: read blob %s: %w", id, err)
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != id {
		return nil, fmt.Errorf("store: blob %s failed content verification", id)
	}
	return blob, nil
}

// readerLocked returns the shared read handle of a store file, opening it
// on first use; ReadAt is safe for concurrent readers, and Close releases
// it.
func (s *Store) readerLocked(name string) (faultfs.File, error) {
	if r, ok := s.readers[name]; ok {
		return r, nil
	}
	r, err := s.fsys.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	s.readers[name] = r
	return r, nil
}

func (s *Store) cacheDecoded(id string, p *sampler.Profile) {
	s.decoded.Put(id, p)
	s.m.cacheEntries.Set(float64(s.decoded.Len()))
}

// Lookup returns the entry stored under a (workload, label, run) key.
func (s *Store) Lookup(workload string, label Label, run string) (*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[entryKey(workload, label, run)]
	if !ok {
		return nil, false
	}
	cp := *e
	return &cp, true
}

// runLess orders run ids naturally for the common numeric case (shorter
// strings first, then lexicographic), matching the bug registry's ID order.
func runLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

func (s *Store) labeled(workload string, label Label) []*Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*Entry
	for _, e := range s.byWl[workload] {
		if e.Label == label {
			cp := *e
			out = append(out, &cp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Run != out[j].Run {
			return runLess(out[i].Run, out[j].Run)
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Baselines returns the workload's rolling baseline corpus: its most recent
// BaselineCap normal entries, in run order.
func (s *Store) Baselines(workload string) []*Entry {
	out := s.labeled(workload, LabelNormal)
	if len(out) > s.opts.BaselineCap {
		// Most recent = highest Seq; keep those, restore run order.
		sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
		out = out[:s.opts.BaselineCap]
		sort.Slice(out, func(i, j int) bool {
			if out[i].Run != out[j].Run {
				return runLess(out[i].Run, out[j].Run)
			}
			return out[i].Seq < out[j].Seq
		})
	}
	return out
}

// Candidates returns the workload's candidate entries, in run order.
func (s *Store) Candidates(workload string) []*Entry {
	return s.labeled(workload, LabelCandidate)
}

// Entries returns every entry for a workload (all labels) in Seq order, or
// — when workload is empty — every entry in the store, grouped by workload
// name. The cluster tier enumerates replicas with it during rebalance and
// read-repair.
func (s *Store) Entries(workload string) []*Entry {
	s.mu.RLock()
	names := make([]string, 0, len(s.byWl))
	if workload != "" {
		if _, ok := s.byWl[workload]; ok {
			names = append(names, workload)
		}
	} else {
		for wl := range s.byWl {
			names = append(names, wl)
		}
	}
	var out []*Entry
	sort.Strings(names)
	for _, wl := range names {
		for _, e := range s.byWl[wl] {
			cp := *e
			out = append(out, &cp)
		}
	}
	s.mu.RUnlock()
	return out
}

// WorkloadInfo summarizes one workload's holdings.
type WorkloadInfo struct {
	Workload   string `json:"workload"`
	Normals    int    `json:"normals"`
	Candidates int    `json:"candidates"`
	Baselines  int    `json:"baselines"`
}

// Workloads lists every workload with stored entries, sorted by name.
func (s *Store) Workloads() []WorkloadInfo {
	s.mu.RLock()
	names := make([]string, 0, len(s.byWl))
	for wl := range s.byWl {
		names = append(names, wl)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	out := make([]WorkloadInfo, 0, len(names))
	for _, wl := range names {
		info := WorkloadInfo{Workload: wl}
		info.Normals = len(s.labeled(wl, LabelNormal))
		info.Candidates = len(s.labeled(wl, LabelCandidate))
		b := len(s.Baselines(wl))
		info.Baselines = b
		out = append(out, info)
	}
	return out
}

// CacheStats reports decoded-cache hit/miss counters.
func (s *Store) CacheStats() CacheStats { return s.decoded.Stats() }

// Flush forces the append handles to stable storage — the final step of a
// graceful shutdown. It first waits for the folds of the pushes acked
// before it, so their sketch frames are synced too. With the default
// options every acknowledged push's blob and manifest record are already
// durable; Flush makes its sketch frame durable, and covers NoSync stores.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitFoldsLocked()
	if s.manifest == nil || s.seg == nil {
		return errClosed
	}
	if err := s.seg.f.Sync(); err != nil {
		return fmt.Errorf("store: flush segment: %w", err)
	}
	if err := s.manifest.f.Sync(); err != nil {
		return fmt.Errorf("store: flush manifest: %w", err)
	}
	if err := s.sketchLog.f.Sync(); err != nil {
		return fmt.Errorf("store: flush sketch log: %w", err)
	}
	return nil
}

// Health verifies the store is writable: both append handles are open, the
// manifest and the sketch log sync, and the directory is still present.
// It is the substance behind the service's /healthz check, and its sync
// makes the sketch frames appended since the last one durable.
func (s *Store) Health() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.manifest == nil || s.seg == nil {
		return errClosed
	}
	if err := s.wedgedLocked(); err != nil {
		return fmt.Errorf("store: wedged by failed rollback: %w", err)
	}
	if err := s.manifest.f.Sync(); err != nil {
		return fmt.Errorf("store: manifest not writable: %w", err)
	}
	if err := s.sketchLog.f.Sync(); err != nil {
		return fmt.Errorf("store: sketch log not writable: %w", err)
	}
	if _, err := s.fsys.Stat(s.dir); err != nil {
		return fmt.Errorf("store: directory missing: %w", err)
	}
	return nil
}

// HealthDetail classifies the store for /healthz: "unavailable" when it is
// not writable (see Health), "degraded" when it came up from a dirty
// shutdown — it serves reads and writes, but signals the repair until a
// clean restart — and "ok" otherwise.
func (s *Store) HealthDetail() (string, map[string]string) {
	status, checks := "ok", map[string]string{"store_writable": "ok"}
	if err := s.Health(); err != nil {
		status, checks["store_writable"] = "unavailable", err.Error()
	}
	if rep := s.Recovery(); rep != nil && !rep.Clean() {
		checks["store_recovery"] = fmt.Sprintf("recovered from dirty shutdown (%d issue(s) repaired)", len(rep.Issues))
		if status == "ok" {
			status = "degraded"
		}
	}
	return status, checks
}

// Close waits for every pending fold, syncs the sketch log and releases
// file handles. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.folds) > 0 { // acked pushes log their sketches first
		s.waitFoldsLocked()
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.sketchLog != nil {
		keep(s.sketchLog.f.Sync())
	}
	for _, l := range []*appendLog{s.manifest, s.seg, s.sketchLog} {
		if l != nil {
			keep(l.f.Close())
		}
	}
	s.manifest, s.seg, s.sketchLog = nil, nil, nil
	for _, r := range s.readers {
		keep(r.Close())
	}
	s.readers = map[string]faultfs.File{}
	return first
}
