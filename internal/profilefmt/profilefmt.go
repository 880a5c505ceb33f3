// Package profilefmt serializes profiles to disk, mirroring vProf's
// artifact layout: for each profiled process (pid) it writes
//
//	gmon.<pid>.out     — the PC cost histogram (gprof's data)
//	gmon_var.<pid>.out — the value samples (vProf's addition)
//	layout.<pid>.out   — the layout log mapping samples to variables
//
// The format is a compact little-endian binary encoding with a magic header
// and version, so a profile written by one session can be analyzed offline
// by another (cmd/vprof's profile/analyze split).
package profilefmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"vprof/internal/sampler"
)

// Magic numbers identify the three artifact kinds plus the single-blob
// bundle used for transport (store segments, HTTP ingestion).
const (
	MagicHist   = "VPRH"
	MagicVar    = "VPRV"
	MagicLayout = "VPRL"
	MagicBundle = "VPRB"
	// Version of the encoding.
	Version = 1
)

// Decode limits. Untrusted input (the ingestion endpoint) must not be able
// to make a decoder allocate unbounded memory or index out of range; every
// count read off the wire is checked against these before use.
const (
	MaxHistLen    = 1 << 22
	MaxSamples    = 1 << 26
	MaxLayout     = 1 << 20
	maxPreallocCP = 1 << 16 // cap on trusted-count preallocation
)

func prealloc(n int64) int64 {
	if n > maxPreallocCP {
		return maxPreallocCP
	}
	return n
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeHeader(w io.Writer, magic string) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, uint32(Version))
}

func readHeader(r io.Reader, magic string) error {
	buf := make([]byte, 4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	if string(buf) != magic {
		return fmt.Errorf("profilefmt: bad magic %q, want %q", buf, magic)
	}
	var v uint32
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return err
	}
	if v != Version {
		return fmt.Errorf("profilefmt: unsupported version %d", v)
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("profilefmt: string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// EncodeHist writes the PC histogram section of a profile.
func EncodeHist(w io.Writer, p *sampler.Profile) error {
	if err := writeHeader(w, MagicHist); err != nil {
		return err
	}
	if err := writeString(w, p.File); err != nil {
		return err
	}
	hdr := []int64{int64(p.Pid), p.Interval, p.TotalTicks, p.NumAlarms, int64(len(p.Hist))}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	// Sparse encoding: (pc, count) pairs for nonzero buckets.
	var nz int64
	for _, n := range p.Hist {
		if n != 0 {
			nz++
		}
	}
	if err := binary.Write(w, binary.LittleEndian, nz); err != nil {
		return err
	}
	for pc, n := range p.Hist {
		if n == 0 {
			continue
		}
		if err := binary.Write(w, binary.LittleEndian, [2]int64{int64(pc), n}); err != nil {
			return err
		}
	}
	return nil
}

// DecodeHist reads a histogram section into a fresh profile shell.
func DecodeHist(r io.Reader) (*sampler.Profile, error) {
	if err := readHeader(r, MagicHist); err != nil {
		return nil, err
	}
	file, err := readString(r)
	if err != nil {
		return nil, err
	}
	var hdr [5]int64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	if hdr[4] < 0 || hdr[4] > MaxHistLen {
		return nil, fmt.Errorf("profilefmt: hist length %d out of range", hdr[4])
	}
	p := &sampler.Profile{
		File:       file,
		Pid:        int(hdr[0]),
		Interval:   hdr[1],
		TotalTicks: hdr[2],
		NumAlarms:  hdr[3],
		Hist:       make([]int64, hdr[4]),
	}
	var nz int64
	if err := binary.Read(r, binary.LittleEndian, &nz); err != nil {
		return nil, err
	}
	if nz < 0 || nz > hdr[4] {
		return nil, fmt.Errorf("profilefmt: nonzero-bucket count %d out of range", nz)
	}
	for i := int64(0); i < nz; i++ {
		var pair [2]int64
		if err := binary.Read(r, binary.LittleEndian, &pair); err != nil {
			return nil, err
		}
		if pair[0] < 0 || pair[0] >= int64(len(p.Hist)) {
			return nil, fmt.Errorf("profilefmt: pc %d out of range", pair[0])
		}
		p.Hist[pair[0]] = pair[1]
	}
	return p, nil
}

// EncodeSamples writes the value-sample section.
func EncodeSamples(w io.Writer, p *sampler.Profile) error {
	if err := writeHeader(w, MagicVar); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(p.Samples))); err != nil {
		return err
	}
	for _, s := range p.Samples {
		ptr := int32(0)
		if s.Ptr {
			ptr = 1
		}
		rec := []int64{int64(s.Layout), int64(s.VarNode), int64(s.PC), int64(s.StackDepth), s.Value, int64(ptr), s.Tick, int64(s.Link)}
		if err := binary.Write(w, binary.LittleEndian, rec); err != nil {
			return err
		}
	}
	return nil
}

// DecodeSamples reads the value-sample section into p.
func DecodeSamples(r io.Reader, p *sampler.Profile) error {
	if err := readHeader(r, MagicVar); err != nil {
		return err
	}
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if n < 0 || n > MaxSamples {
		return fmt.Errorf("profilefmt: sample count %d out of range", n)
	}
	p.Samples = make([]sampler.Sample, 0, prealloc(n))
	for i := int64(0); i < n; i++ {
		var rec [8]int64
		if err := binary.Read(r, binary.LittleEndian, &rec); err != nil {
			return err
		}
		p.Samples = append(p.Samples, sampler.Sample{
			Layout:     int32(rec[0]),
			VarNode:    int32(rec[1]),
			PC:         int32(rec[2]),
			StackDepth: int32(rec[3]),
			Value:      rec[4],
			Ptr:        rec[5] != 0,
			Tick:       rec[6],
			Link:       int32(rec[7]),
		})
	}
	return nil
}

// EncodeLayout writes the layout log.
func EncodeLayout(w io.Writer, p *sampler.Profile) error {
	if err := writeHeader(w, MagicLayout); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(p.Layout))); err != nil {
		return err
	}
	for _, l := range p.Layout {
		if err := writeString(w, l.Func); err != nil {
			return err
		}
		if err := writeString(w, l.Name); err != nil {
			return err
		}
		ptr := int32(0)
		if l.IsPointer {
			ptr = 1
		}
		if err := binary.Write(w, binary.LittleEndian, ptr); err != nil {
			return err
		}
	}
	return nil
}

// DecodeLayout reads the layout log into p.
func DecodeLayout(r io.Reader, p *sampler.Profile) error {
	if err := readHeader(r, MagicLayout); err != nil {
		return err
	}
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if n < 0 || n > MaxLayout {
		return fmt.Errorf("profilefmt: layout count %d out of range", n)
	}
	p.Layout = make([]sampler.LayoutEntry, 0, prealloc(n))
	for i := int64(0); i < n; i++ {
		fn, err := readString(r)
		if err != nil {
			return err
		}
		name, err := readString(r)
		if err != nil {
			return err
		}
		var ptr int32
		if err := binary.Read(r, binary.LittleEndian, &ptr); err != nil {
			return err
		}
		p.Layout = append(p.Layout, sampler.LayoutEntry{Func: fn, Name: name, IsPointer: ptr != 0})
	}
	return nil
}

// EncodeProfile writes all three sections of a profile as one blob:
// a bundle header followed by the hist, sample and layout sections. This is
// the transport encoding used by the profile store and the ingestion API,
// where a profile travels as a single opaque, content-addressable byte
// string rather than three files.
func EncodeProfile(w io.Writer, p *sampler.Profile) error {
	if err := writeHeader(w, MagicBundle); err != nil {
		return err
	}
	if err := EncodeHist(w, p); err != nil {
		return err
	}
	if err := EncodeSamples(w, p); err != nil {
		return err
	}
	return EncodeLayout(w, p)
}

// DecodeProfile reads a bundle written by EncodeProfile and validates the
// cross-section invariants (sample indices in range), so a successfully
// decoded profile is safe to hand to the analyzer.
func DecodeProfile(r io.Reader) (*sampler.Profile, error) {
	if err := readHeader(r, MagicBundle); err != nil {
		return nil, err
	}
	p, err := DecodeHist(r)
	if err != nil {
		return nil, err
	}
	if err := DecodeSamples(r, p); err != nil {
		return nil, err
	}
	if err := DecodeLayout(r, p); err != nil {
		return nil, err
	}
	if err := Validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Marshal renders a profile as a single bundle blob (EncodeProfile to bytes).
func Marshal(p *sampler.Profile) ([]byte, error) {
	var b bytes.Buffer
	if err := EncodeProfile(&b, p); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Unmarshal parses a bundle blob, rejecting trailing garbage.
func Unmarshal(blob []byte) (*sampler.Profile, error) {
	r := bytes.NewReader(blob)
	p, err := DecodeProfile(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("profilefmt: %d trailing bytes after bundle", r.Len())
	}
	return p, nil
}

// Validate checks a decoded profile's internal consistency: every value
// sample must reference an existing layout entry and a PC the histogram
// covers (the sketch folded from it is keyed by that PC), and the
// hist/alarm counters must be non-negative. Decoders run it before
// returning untrusted input.
func Validate(p *sampler.Profile) error {
	if p.Interval < 0 || p.TotalTicks < 0 || p.NumAlarms < 0 {
		return fmt.Errorf("profilefmt: negative counters (interval %d, ticks %d, alarms %d)",
			p.Interval, p.TotalTicks, p.NumAlarms)
	}
	for i, s := range p.Samples {
		if s.Layout < 0 || int(s.Layout) >= len(p.Layout) {
			return fmt.Errorf("profilefmt: sample %d references layout %d of %d", i, s.Layout, len(p.Layout))
		}
		if s.PC < 0 || int(s.PC) >= len(p.Hist) {
			return fmt.Errorf("profilefmt: sample %d has pc %d outside the %d-pc histogram", i, s.PC, len(p.Hist))
		}
		if s.Link < -1 || int(s.Link) >= len(p.Samples) {
			return fmt.Errorf("profilefmt: sample %d has link %d of %d", i, s.Link, len(p.Samples))
		}
	}
	return nil
}

// WriteDir writes one profile's three artifacts into dir using the paper's
// pid-suffixed names.
func WriteDir(dir string, p *sampler.Profile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, enc func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		if err := enc(bw); err != nil {
			f.Close()
			return err
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(fmt.Sprintf("gmon.%d.out", p.Pid), func(w io.Writer) error { return EncodeHist(w, p) }); err != nil {
		return err
	}
	if err := write(fmt.Sprintf("gmon_var.%d.out", p.Pid), func(w io.Writer) error { return EncodeSamples(w, p) }); err != nil {
		return err
	}
	return write(fmt.Sprintf("layout.%d.out", p.Pid), func(w io.Writer) error { return EncodeLayout(w, p) })
}

// ReadDir loads every profile found in dir (one per pid), in pid order.
func ReadDir(dir string) ([]*sampler.Profile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var pids []int
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "gmon.") && strings.HasSuffix(name, ".out") && !strings.HasPrefix(name, "gmon_var.") {
			pidStr := strings.TrimSuffix(strings.TrimPrefix(name, "gmon."), ".out")
			pid, err := strconv.Atoi(pidStr)
			if err != nil {
				continue
			}
			pids = append(pids, pid)
		}
	}
	sort.Ints(pids)
	var out []*sampler.Profile
	for _, pid := range pids {
		p, err := ReadPid(dir, pid)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ReadPid loads the three artifacts of one pid from dir.
func ReadPid(dir string, pid int) (*sampler.Profile, error) {
	open := func(name string) (*os.File, error) {
		return os.Open(filepath.Join(dir, name))
	}
	hf, err := open(fmt.Sprintf("gmon.%d.out", pid))
	if err != nil {
		return nil, err
	}
	defer hf.Close()
	p, err := DecodeHist(bufio.NewReader(hf))
	if err != nil {
		return nil, fmt.Errorf("decode hist pid %d: %w", pid, err)
	}
	vf, err := open(fmt.Sprintf("gmon_var.%d.out", pid))
	if err != nil {
		return nil, err
	}
	defer vf.Close()
	if err := DecodeSamples(bufio.NewReader(vf), p); err != nil {
		return nil, fmt.Errorf("decode samples pid %d: %w", pid, err)
	}
	lf, err := open(fmt.Sprintf("layout.%d.out", pid))
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	if err := DecodeLayout(bufio.NewReader(lf), p); err != nil {
		return nil, fmt.Errorf("decode layout pid %d: %w", pid, err)
	}
	return p, nil
}

// EncodedSize returns the total encoded byte size of a profile (used by the
// overhead tables without touching the filesystem).
func EncodedSize(p *sampler.Profile) (int64, error) {
	cw := &countingWriter{w: io.Discard}
	if err := EncodeHist(cw, p); err != nil {
		return 0, err
	}
	if err := EncodeSamples(cw, p); err != nil {
		return 0, err
	}
	if err := EncodeLayout(cw, p); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// Timestamp formats a time for artifact logging; isolated here so tests can
// exercise it.
func Timestamp(t time.Time) string { return t.UTC().Format("2006-01-02T15:04:05Z") }
