package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"vprof/internal/faultfs"
	"vprof/internal/obs"
)

// The store's three kinds of append-only file — segments, the manifest and
// the sketch log — share the code in this file: how a file is born, the
// header that opens a segment or the sketch log, the CRC32C frame, and the
// append with its rollback.

const (
	// headerSize bytes open a segment or the sketch log.
	headerSize = 8
	// frameHeaderSize bytes precede every framed payload: its size and its
	// CRC32C, both little-endian uint32.
	frameHeaderSize = 8
)

// castagnoli is the CRC32C table shared by manifest records and frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fileHeader is a 4-byte magic followed by the little-endian format
// version.
type fileHeader [headerSize]byte

func newHeader(magic string, version uint32) fileHeader {
	var h fileHeader
	copy(h[:], magic)
	binary.LittleEndian.PutUint32(h[4:], version)
	return h
}

var (
	segHeader    = newHeader("VSEG", 1)
	sketchHeader = newHeader("VSKL", 1)
)

// matches reports whether b opens with h.
func (h fileHeader) matches(b []byte) bool {
	return len(b) >= headerSize && string(b[:headerSize]) == string(h[:])
}

// createFile births path holding content: content is written and fsynced
// under a .tmp name that is then renamed into place, so a crash can never
// leave a half-written file under the real name. Recovery removes a stray
// .tmp.
func createFile(fsys faultfs.FS, path string, content []byte) (err error) {
	tmp := path + ".tmp"
	defer func() {
		if err != nil {
			fsys.Remove(tmp) // best effort: do not leave temp debris
		}
	}()
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(content); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// readFrame returns the payload of the frame that b starts with. It fails
// when b is shorter than the frame header or the payload size it declares,
// or when the payload does not match its CRC32C.
func readFrame(b []byte) ([]byte, error) {
	if len(b) < frameHeaderSize {
		return nil, fmt.Errorf("torn frame header (%d byte(s))", len(b))
	}
	size := int64(binary.LittleEndian.Uint32(b))
	if frameHeaderSize+size > int64(len(b)) {
		return nil, fmt.Errorf("frame declares %d byte(s), %d follow", size, len(b)-frameHeaderSize)
	}
	payload := b[frameHeaderSize : frameHeaderSize+size]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[4:]); got != want {
		return nil, fmt.Errorf("payload fails CRC32C (%08x != %08x)", got, want)
	}
	return payload, nil
}

// appendLog is one append-only file open for append. Every append follows
// one rule: the bytes go out in one Write, which is fsynced unless noSync
// before the append returns, and a failed Write or Sync truncates the file
// back to its length before the append. If that truncate fails too, the
// file's tail is unknown and the log is wedged: it refuses every later
// append. What a wedged log means is its owner's policy.
type appendLog struct {
	f      faultfs.File
	size   int64
	noSync bool
	wedged error
}

// openLog opens a store file for append. A segment or the sketch log is
// born with its header if it does not exist yet; the manifest has no
// header, and an empty manifest is simply created.
func (s *Store) openLog(name string, header *fileHeader) (*appendLog, error) {
	path := filepath.Join(s.dir, name)
	flag := os.O_WRONLY | os.O_APPEND
	if header == nil {
		flag |= os.O_CREATE
	} else if _, err := s.fsys.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := createFile(s.fsys, path, header[:]); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	f, err := s.fsys.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &appendLog{f: f, size: st.Size(), noSync: s.opts.NoSync}, nil
}

// append writes b at the end of the file and returns the offset it starts
// at.
func (l *appendLog) append(b []byte) (int64, error) {
	if l.wedged != nil {
		return 0, l.wedged
	}
	start := l.size
	n, err := l.f.Write(b)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		err = fmt.Errorf("write: %w", err)
	} else if !l.noSync {
		if err = l.f.Sync(); err != nil {
			err = fmt.Errorf("sync: %w", err)
		}
	}
	if err != nil {
		l.truncate(start)
		return 0, err
	}
	l.size = start + int64(len(b))
	return start, nil
}

// appendFrame appends payload as one frame and returns the offset of the
// payload. Header and payload go out in one append: written apart, they
// would add a point for a crash to fall between the two.
func (l *appendLog) appendFrame(payload []byte) (int64, error) {
	frame := obs.GetBuffer(frameHeaderSize + len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	start, err := l.append(frame)
	obs.PutBuffer(frame)
	return start + frameHeaderSize, err
}

// truncate cuts the file back to size, wedging the log if it cannot.
func (l *appendLog) truncate(size int64) {
	if err := l.f.Truncate(size); err != nil {
		if l.wedged == nil {
			l.wedged = fmt.Errorf("rollback of %s to %d bytes: %w", filepath.Base(l.f.Name()), size, err)
		}
		return
	}
	l.size = size
}
