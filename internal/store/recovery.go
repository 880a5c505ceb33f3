package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vprof/internal/faultfs"
)

// FsckReport is the outcome of a recovery pass over a store directory —
// run implicitly by Open, or explicitly by Fsck / Repair / `vprof fsck`.
type FsckReport struct {
	Dir     string
	Records int // valid manifest records that survived
	// SketchRecords counts whole sketch frames surviving in sketches.log
	// (derived data: losses here rebuild from blobs, never drop entries).
	SketchRecords int

	// Issues lists every problem found; empty means the store was clean.
	Issues []string
	// Repaired lists the actions actually taken (only Repair/Open take
	// action; Fsck reports what it would do).
	Repaired []string
	// DroppedRecords counts manifest records discarded because their line
	// was corrupt, trailed a corrupt line, or referenced a bad segment.
	DroppedRecords int
	// Quarantined lists segment files that failed verification and were
	// (or would be) moved into quarantine/ instead of loaded.
	Quarantined []string
	// TruncatedBytes is the torn-tail debris trimmed from the manifest and
	// segments.
	TruncatedBytes int64
}

// Clean reports whether the pass found nothing wrong.
func (r *FsckReport) Clean() bool { return len(r.Issues) == 0 }

// Render formats the report for humans (the `vprof fsck` output).
func (r *FsckReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "store %s: %d record(s), %d sketch(es)", r.Dir, r.Records, r.SketchRecords)
	if r.Clean() {
		b.WriteString(", clean\n")
		return b.String()
	}
	fmt.Fprintf(&b, ", %d issue(s)\n", len(r.Issues))
	for _, is := range r.Issues {
		fmt.Fprintf(&b, "  issue: %s\n", is)
	}
	for _, q := range r.Quarantined {
		fmt.Fprintf(&b, "  quarantine: %s\n", q)
	}
	if r.DroppedRecords > 0 {
		fmt.Fprintf(&b, "  dropped records: %d\n", r.DroppedRecords)
	}
	if r.TruncatedBytes > 0 {
		fmt.Fprintf(&b, "  truncated bytes: %d\n", r.TruncatedBytes)
	}
	for _, rep := range r.Repaired {
		fmt.Fprintf(&b, "  repaired: %s\n", rep)
	}
	return b.String()
}

// Fsck checks a store directory without modifying it: the report lists the
// damage a Repair (or Open) would fix. The returned error means the store
// is unrecoverable — the directory or manifest cannot even be read.
func Fsck(dir string) (*FsckReport, error) {
	rep, _, err := recoverDir(faultfs.NewOS(), dir, false)
	return rep, err
}

// Repair checks a store directory and fixes what it finds: truncates torn
// tails, removes temp debris, quarantines corrupt segments, and rewrites
// the manifest without records that pointed into them.
func Repair(dir string) (*FsckReport, error) {
	rep, _, err := recoverDir(faultfs.NewOS(), dir, true)
	return rep, err
}

// recoveredRecord is one manifest record that survived recovery.
type recoveredRecord struct {
	entry *Entry
	ref   blobRef
}

// recovered is what a recovery pass leaves for Open to load.
type recovered struct {
	records  []recoveredRecord
	sketches map[string]sketchRef // blob id → its last whole frame in sketches.log
}

// recoverDir is the single recovery path shared by Open, Fsck and Repair:
//
//  1. remove stray *.tmp files (a crash mid file birth);
//  2. replay the manifest up to its first corrupt record and truncate the
//     rest — records are CRC-framed, so a torn or flipped line is caught;
//  3. validate the sketch log: a bad header quarantines it, a torn or
//     corrupt tail is truncated, and its whole frames are kept for Open;
//  4. verify every referenced segment: magic header, and every referenced
//     frame in bounds with a matching size field and payload CRC32C. A
//     segment that fails is quarantined and its records dropped; a segment
//     with bytes past its last referenced frame (an append whose manifest
//     record never landed) is truncated;
//  5. truncate unreferenced segments back to their header, or quarantine
//     them if even the header is bad;
//  6. if step 4 dropped records, rewrite the manifest (temp + rename) so
//     the next replay is clean.
//
// apply=false is a dry run (Fsck): the report says what would be done. A
// non-nil error means unrecoverable: the directory, manifest or a segment
// could not even be read/moved, so no consistent state can be produced.
func recoverDir(fsys faultfs.FS, dir string, apply bool) (*FsckReport, recovered, error) {
	rep := &FsckReport{Dir: dir}
	var found recovered
	if _, err := fsys.Stat(dir); err != nil {
		return rep, found, fmt.Errorf("store: unrecoverable: %w", err)
	}

	des, err := fsys.ReadDir(dir)
	if err != nil {
		return rep, found, fmt.Errorf("store: unrecoverable: %w", err)
	}
	onDisk := map[string]bool{} // segment files present in the directory
	for _, de := range des {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			rep.Issues = append(rep.Issues, fmt.Sprintf("stray temp file %s", name))
			if apply {
				if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
					return rep, found, fmt.Errorf("store: unrecoverable: remove %s: %w", name, err)
				}
				rep.Repaired = append(rep.Repaired, fmt.Sprintf("removed %s", name))
			}
		case strings.HasPrefix(name, "segment-") && strings.HasSuffix(name, ".seg"):
			onDisk[name] = true
		}
	}

	records, err := replayManifest(fsys, dir, rep, apply)
	if err != nil {
		return rep, found, err
	}

	// The sketch log is derived data: recover it independently (truncate a
	// torn tail, quarantine on a bad header) without affecting any record.
	if found.sketches, err = recoverSketchLog(fsys, dir, rep, apply); err != nil {
		return rep, found, err
	}

	// Group surviving records by the segment they point into.
	bySeg := map[int][]recoveredRecord{}
	for _, rec := range records {
		bySeg[rec.ref.segment] = append(bySeg[rec.ref.segment], rec)
	}
	segIDs := make([]int, 0, len(bySeg))
	for id := range bySeg {
		segIDs = append(segIDs, id)
	}
	sort.Ints(segIDs)

	badSeg := map[int]bool{}
	for _, id := range segIDs {
		ok, err := checkSegment(fsys, dir, segmentName(id), bySeg[id], rep, apply)
		if err != nil {
			return rep, found, err
		}
		if !ok {
			badSeg[id] = true
			rep.DroppedRecords += len(bySeg[id])
		}
		delete(onDisk, segmentName(id))
	}

	// Unreferenced segments: a fresh (or fully-unacked) segment is fine
	// once trimmed to its header; anything headerless is quarantined.
	var unref []string
	for name := range onDisk {
		unref = append(unref, name)
	}
	sort.Strings(unref)
	for _, name := range unref {
		if _, err := checkSegment(fsys, dir, name, nil, rep, apply); err != nil {
			return rep, found, err
		}
	}

	// Drop records that pointed into quarantined/missing segments, and
	// persist that decision so the next replay does not resurrect them.
	if len(badSeg) > 0 {
		kept := records[:0]
		for _, rec := range records {
			if !badSeg[rec.ref.segment] {
				kept = append(kept, rec)
			}
		}
		records = kept
		if apply {
			var content []byte
			for _, rec := range records {
				content = append(content, formatManifestLine(rec.entry, rec.ref)...)
			}
			if err := createFile(fsys, filepath.Join(dir, manifestName), content); err != nil {
				return rep, found, fmt.Errorf("store: unrecoverable: rewrite manifest: %w", err)
			}
			rep.Repaired = append(rep.Repaired,
				fmt.Sprintf("rewrote manifest without %d dropped record(s)", rep.DroppedRecords))
		}
	}
	rep.Records = len(records)
	found.records = records
	return rep, found, nil
}

// readFileVia reads a whole file through the faultfs seam (nil, nil when it
// does not exist).
func readFileVia(fsys faultfs.FS, path string) ([]byte, error) {
	fi, err := fsys.Stat(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, fi.Size())
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, fi.Size()), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// replayManifest parses the manifest up to its first invalid record. Any
// bytes past that point — a torn final line after a crash, or a flipped
// record and everything behind it — are truncated away (when applying).
func replayManifest(fsys faultfs.FS, dir string, rep *FsckReport, apply bool) ([]recoveredRecord, error) {
	path := filepath.Join(dir, manifestName)
	data, err := readFileVia(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("store: unrecoverable: read manifest: %w", err)
	}
	var records []recoveredRecord
	validLen := int64(0)
	rest := data
	for len(rest) > 0 {
		nl := -1
		for i, b := range rest {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // trailing fragment without newline: torn tail
		}
		line := string(rest[:nl+1])
		e, ref, perr := parseManifestLine(line)
		if perr != nil {
			break
		}
		records = append(records, recoveredRecord{entry: e, ref: ref})
		validLen += int64(nl + 1)
		rest = rest[nl+1:]
	}
	if validLen < int64(len(data)) {
		torn := int64(len(data)) - validLen
		// Complete lines beyond the corrupt one are records being dropped.
		for _, b := range data[validLen:] {
			if b == '\n' {
				rep.DroppedRecords++
			}
		}
		rep.TruncatedBytes += torn
		rep.Issues = append(rep.Issues,
			fmt.Sprintf("manifest: %d corrupt/torn byte(s) after %d valid record(s)", torn, len(records)))
		if apply {
			if err := fsys.Truncate(path, validLen); err != nil {
				return nil, fmt.Errorf("store: unrecoverable: truncate manifest: %w", err)
			}
			rep.Repaired = append(rep.Repaired, fmt.Sprintf("truncated manifest to %d bytes", validLen))
		}
	}
	return records, nil
}

// checkSegment verifies one segment file against the records that point
// into it (none for a segment the manifest does not reference). It returns
// ok=false when the segment cannot be trusted — missing, bad header, or a
// referenced frame out of bounds, sized unlike its record or failing its
// CRC32C — and the file is quarantined; the caller drops its records. A
// trusted segment with bytes past its last referenced frame (or past its
// header, when none is referenced) is truncated back to that point.
func checkSegment(fsys faultfs.FS, dir, name string, recs []recoveredRecord, rep *FsckReport, apply bool) (bool, error) {
	path := filepath.Join(dir, name)
	fi, err := fsys.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		rep.Issues = append(rep.Issues, fmt.Sprintf("%s: missing (%d record(s) point into it)", name, len(recs)))
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: unrecoverable: stat %s: %w", name, err)
	}
	f, err := fsys.Open(path)
	if err != nil {
		return false, fmt.Errorf("store: unrecoverable: open %s: %w", name, err)
	}
	bad := func(format string, args ...any) (bool, error) {
		f.Close()
		rep.Issues = append(rep.Issues, fmt.Sprintf("%s: ", name)+fmt.Sprintf(format, args...))
		if err := quarantine(fsys, dir, name, rep, apply); err != nil {
			return false, err
		}
		return false, nil
	}

	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return bad("unreadable header: %v", err)
	}
	if !segHeader.matches(hdr) {
		return bad("bad header %q", hdr)
	}

	maxEnd := int64(headerSize)
	for _, rec := range recs {
		start, end := rec.ref.offset-frameHeaderSize, rec.ref.offset+rec.ref.size
		if end > maxEnd {
			maxEnd = end
		}
		if start < headerSize {
			return bad("record %s points into the header", rec.entry.ID[:8])
		}
		if end > fi.Size() {
			return bad("record %s reaches byte %d but the file has %d", rec.entry.ID[:8], end, fi.Size())
		}
		frame := make([]byte, end-start)
		if _, err := f.ReadAt(frame, start); err != nil {
			return bad("unreadable frame at %d: %v", start, err)
		}
		payload, err := readFrame(frame)
		if err == nil && int64(len(payload)) != rec.ref.size {
			err = fmt.Errorf("frame sized %d, manifest says %d", len(payload), rec.ref.size)
		}
		if err != nil {
			return bad("frame at %d: %v", start, err)
		}
	}
	f.Close()

	if fi.Size() > maxEnd {
		torn := fi.Size() - maxEnd
		rep.TruncatedBytes += torn
		rep.Issues = append(rep.Issues,
			fmt.Sprintf("%s: %d unreferenced byte(s) past the last acked frame", name, torn))
		if apply {
			if err := fsys.Truncate(path, maxEnd); err != nil {
				return false, fmt.Errorf("store: unrecoverable: truncate %s: %w", name, err)
			}
			rep.Repaired = append(rep.Repaired, fmt.Sprintf("truncated %s to %d bytes", name, maxEnd))
		}
	}
	return true, nil
}

// quarantine moves a condemned segment or sketch log into
// <dir>/quarantine/, picking a fresh name if a previous incarnation is
// already there.
func quarantine(fsys faultfs.FS, dir, name string, rep *FsckReport, apply bool) error {
	rep.Quarantined = append(rep.Quarantined, name)
	if !apply {
		return nil
	}
	qdir := filepath.Join(dir, "quarantine")
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: unrecoverable: create quarantine dir: %w", err)
	}
	dst := filepath.Join(qdir, name)
	for i := 1; ; i++ {
		if _, err := fsys.Stat(dst); errors.Is(err, os.ErrNotExist) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, i))
	}
	if err := fsys.Rename(filepath.Join(dir, name), dst); err != nil {
		return fmt.Errorf("store: unrecoverable: quarantine %s: %w", name, err)
	}
	rep.Repaired = append(rep.Repaired, fmt.Sprintf("moved %s to %s", name, dst))
	return nil
}
