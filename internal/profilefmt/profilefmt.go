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
//
// Encoders append to one []byte sized up front by the matching *Size
// function; decoders read the input slice through a sticky-error cursor.
// Neither side reflects or allocates per record.
package profilefmt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
	maxString     = 1 << 20
	maxPreallocCP = 1 << 16 // cap on trusted-count preallocation
)

// Encoded sizes of the fixed-size pieces.
const (
	headerSize   = 8  // magic + uint32 version
	sampleRecord = 64 // eight int64 fields per value sample
	pairRecord   = 16 // one (int64 key, int64 count) pair
)

// prealloc caps the capacity reserved for variable-size records, whose
// count the remaining input cannot bound exactly.
func prealloc(n int64) int64 {
	if n > maxPreallocCP {
		return maxPreallocCP
	}
	return n
}

var le = binary.LittleEndian

func appendHeader(b []byte, magic string) []byte {
	return le.AppendUint32(append(b, magic...), Version)
}

func appendString(b []byte, s string) []byte {
	return append(le.AppendUint32(b, uint32(len(s))), s...)
}

func stringSize(s string) int { return 4 + len(s) }

func appendInt64s(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = le.AppendUint64(b, uint64(v))
	}
	return b
}

func boolWord(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

// reader is a sticky-error cursor over an encoded slice: the first short
// read or failed check records err, after which every read returns zero and
// consumes nothing, so decoders check err only where it gates an allocation
// or a loop.
type reader struct {
	b   []byte
	err error
}

func (r *reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("profilefmt: "+format, args...)
	}
}

// next consumes n bytes; nil once the cursor has failed.
func (r *reader) next(n int) []byte {
	if r.err == nil && len(r.b) < n {
		r.err = io.ErrUnexpectedEOF
	}
	if r.err != nil {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u32() uint32 {
	if b := r.next(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (r *reader) i64() int64 {
	if b := r.next(8); b != nil {
		return int64(le.Uint64(b))
	}
	return 0
}

func (r *reader) f64() float64 { return math.Float64frombits(uint64(r.i64())) }

func (r *reader) str() string {
	n := r.u32()
	if n > maxString {
		r.failf("string length %d too large", n)
		return ""
	}
	return string(r.next(int(n)))
}

func (r *reader) header(magic string) {
	if m := r.next(4); m != nil && string(m) != magic {
		r.failf("bad magic %q, want %q", m, magic)
	}
	if v := r.u32(); r.err == nil && v != Version {
		r.failf("unsupported version %d", v)
	}
}

// records reports whether n records of size bytes each fit in the input
// left, failing the cursor if not. A decoder that checks it first can
// allocate exactly n: nothing is allocated that the input does not back.
func (r *reader) records(n int64, size int, what string) bool {
	if r.err == nil && n > int64(len(r.b)/size) {
		r.failf("%d %s of %d bytes exceed the %d bytes left", n, what, size, len(r.b))
	}
	return r.err == nil
}

// decodeBytes runs dec over data and fails if dec leaves bytes unread;
// what names the decoded unit in that error.
func decodeBytes(data []byte, what string, dec func(*reader)) error {
	r := reader{b: data}
	dec(&r)
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("profilefmt: %d trailing bytes after %s", len(r.b), what)
	}
	return r.err
}

// decodeSection is decodeBytes over everything src yields.
func decodeSection(src io.Reader, what string, dec func(*reader)) error {
	data, err := io.ReadAll(src)
	if err != nil {
		return err
	}
	return decodeBytes(data, what, dec)
}

func writeSection(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

// Histogram section: header, file name, (pid, interval, ticks, alarms,
// hist length, nonzero buckets), then one (pc, count) pair per nonzero
// bucket.

func nonzero(hist []int64) int {
	nz := 0
	for _, n := range hist {
		if n != 0 {
			nz++
		}
	}
	return nz
}

func histSize(p *sampler.Profile) int {
	return headerSize + stringSize(p.File) + 6*8 + pairRecord*nonzero(p.Hist)
}

func appendHist(b []byte, p *sampler.Profile) []byte {
	b = appendHeader(b, MagicHist)
	b = appendString(b, p.File)
	b = appendInt64s(b, int64(p.Pid), p.Interval, p.TotalTicks, p.NumAlarms, int64(len(p.Hist)), int64(nonzero(p.Hist)))
	for pc, n := range p.Hist {
		if n != 0 {
			b = appendInt64s(b, int64(pc), n)
		}
	}
	return b
}

// decodeHist reads a histogram section into a fresh profile shell (never
// nil, so later sections can decode into it even after a failure).
func decodeHist(r *reader) *sampler.Profile {
	r.header(MagicHist)
	p := &sampler.Profile{File: r.str()}
	p.Pid, p.Interval, p.TotalTicks, p.NumAlarms = int(r.i64()), r.i64(), r.i64(), r.i64()
	n := r.i64()
	if r.err == nil && (n < 0 || n > MaxHistLen) {
		r.failf("hist length %d out of range", n)
	}
	nz := r.i64()
	if r.err == nil && (nz < 0 || nz > n) {
		r.failf("nonzero-bucket count %d out of range", nz)
	}
	if !r.records(nz, pairRecord, "histogram buckets") {
		return p
	}
	p.Hist = make([]int64, n)
	for i := int64(0); i < nz; i++ {
		pc, c := r.i64(), r.i64()
		if pc < 0 || pc >= n {
			r.failf("pc %d out of range", pc)
			return p
		}
		if c <= 0 {
			// Only nonzero buckets are written, and a sketch folded from
			// the profile carries its counts only if they are positive.
			r.failf("histogram count %d at pc %d not positive", c, pc)
			return p
		}
		p.Hist[pc] = c
	}
	return p
}

// Sample section: header, count, then one 64-byte record per sample.

func samplesSize(p *sampler.Profile) int {
	return headerSize + 8 + sampleRecord*len(p.Samples)
}

func appendSamples(b []byte, p *sampler.Profile) []byte {
	b = appendHeader(b, MagicVar)
	b = appendInt64s(b, int64(len(p.Samples)))
	for i := range p.Samples {
		s := &p.Samples[i]
		b = appendInt64s(b, int64(s.Layout), int64(s.VarNode), int64(s.PC), int64(s.StackDepth),
			s.Value, int64(boolWord(s.Ptr)), s.Tick, int64(s.Link))
	}
	return b
}

// decodeSamples reads a sample section into one exact-size array, allocated
// only once the whole section is known to be present.
func decodeSamples(r *reader, p *sampler.Profile) {
	r.header(MagicVar)
	n := r.i64()
	if r.err == nil && (n < 0 || n > MaxSamples) {
		r.failf("sample count %d out of range", n)
	}
	if !r.records(n, sampleRecord, "samples") {
		return
	}
	data := r.next(int(n) * sampleRecord)
	p.Samples = make([]sampler.Sample, n)
	for i := range p.Samples {
		rec := data[i*sampleRecord : (i+1)*sampleRecord]
		p.Samples[i] = sampler.Sample{
			Layout:     int32(le.Uint64(rec[0:])),
			VarNode:    int32(le.Uint64(rec[8:])),
			PC:         int32(le.Uint64(rec[16:])),
			StackDepth: int32(le.Uint64(rec[24:])),
			Value:      int64(le.Uint64(rec[32:])),
			Ptr:        le.Uint64(rec[40:]) != 0,
			Tick:       int64(le.Uint64(rec[48:])),
			Link:       int32(le.Uint64(rec[56:])),
		}
	}
}

// Layout section: header, count, then (func, name, uint32 pointer flag)
// per entry.

func layoutSize(p *sampler.Profile) int {
	n := headerSize + 8
	for _, l := range p.Layout {
		n += stringSize(l.Func) + stringSize(l.Name) + 4
	}
	return n
}

func appendLayout(b []byte, p *sampler.Profile) []byte {
	b = appendHeader(b, MagicLayout)
	b = appendInt64s(b, int64(len(p.Layout)))
	for _, l := range p.Layout {
		b = appendString(b, l.Func)
		b = appendString(b, l.Name)
		b = le.AppendUint32(b, boolWord(l.IsPointer))
	}
	return b
}

func decodeLayout(r *reader, p *sampler.Profile) {
	r.header(MagicLayout)
	n := r.i64()
	if r.err == nil && (n < 0 || n > MaxLayout) {
		r.failf("layout count %d out of range", n)
	}
	if r.err != nil {
		return
	}
	p.Layout = make([]sampler.LayoutEntry, 0, prealloc(n))
	for i := int64(0); i < n && r.err == nil; i++ {
		fn, name := r.str(), r.str()
		p.Layout = append(p.Layout, sampler.LayoutEntry{Func: fn, Name: name, IsPointer: r.u32() != 0})
	}
}

// EncodeHist writes the PC histogram section of a profile.
func EncodeHist(w io.Writer, p *sampler.Profile) error {
	return writeSection(w, appendHist(make([]byte, 0, histSize(p)), p))
}

// DecodeHist reads a histogram section, which must be all src holds, into a
// fresh profile shell.
func DecodeHist(src io.Reader) (*sampler.Profile, error) {
	var p *sampler.Profile
	if err := decodeSection(src, "histogram", func(r *reader) { p = decodeHist(r) }); err != nil {
		return nil, err
	}
	return p, nil
}

// EncodeSamples writes the value-sample section.
func EncodeSamples(w io.Writer, p *sampler.Profile) error {
	return writeSection(w, appendSamples(make([]byte, 0, samplesSize(p)), p))
}

// DecodeSamples reads a value-sample section, which must be all src holds,
// into p.
func DecodeSamples(src io.Reader, p *sampler.Profile) error {
	return decodeSection(src, "sample section", func(r *reader) { decodeSamples(r, p) })
}

// EncodeLayout writes the layout log.
func EncodeLayout(w io.Writer, p *sampler.Profile) error {
	return writeSection(w, appendLayout(make([]byte, 0, layoutSize(p)), p))
}

// DecodeLayout reads a layout log, which must be all src holds, into p.
func DecodeLayout(src io.Reader, p *sampler.Profile) error {
	return decodeSection(src, "layout log", func(r *reader) { decodeLayout(r, p) })
}

// Marshal renders a profile as a single bundle blob: a bundle header
// followed by the hist, sample and layout sections. This is the transport
// encoding used by the profile store and the ingestion API, where a profile
// travels as a single opaque, content-addressable byte string rather than
// three files.
func Marshal(p *sampler.Profile) ([]byte, error) {
	b := make([]byte, 0, headerSize+histSize(p)+samplesSize(p)+layoutSize(p))
	b = appendHeader(b, MagicBundle)
	b = appendHist(b, p)
	b = appendSamples(b, p)
	return appendLayout(b, p), nil
}

// Unmarshal parses a bundle blob, rejecting trailing garbage, and validates
// the cross-section invariants, so a successfully decoded profile is safe
// to hand to the analyzer.
func Unmarshal(blob []byte) (*sampler.Profile, error) {
	var p *sampler.Profile
	err := decodeBytes(blob, "bundle", func(r *reader) {
		r.header(MagicBundle)
		p = decodeHist(r)
		decodeSamples(r, p)
		decodeLayout(r, p)
	})
	if err != nil {
		return nil, err
	}
	if err := Validate(p); err != nil {
		return nil, err
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
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"gmon.%d.out", appendHist(make([]byte, 0, histSize(p)), p)},
		{"gmon_var.%d.out", appendSamples(make([]byte, 0, samplesSize(p)), p)},
		{"layout.%d.out", appendLayout(make([]byte, 0, layoutSize(p)), p)},
	} {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(f.name, p.Pid)), f.data, 0o666); err != nil {
			return err
		}
	}
	return nil
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

// ReadPid loads the three artifacts of one pid from dir and validates the
// profile they form, as Unmarshal does for a bundle.
func ReadPid(dir string, pid int) (*sampler.Profile, error) {
	var p *sampler.Profile
	for _, f := range []struct {
		name, what string
		dec        func(*reader)
	}{
		{"gmon.%d.out", "hist", func(r *reader) { p = decodeHist(r) }},
		{"gmon_var.%d.out", "samples", func(r *reader) { decodeSamples(r, p) }},
		{"layout.%d.out", "layout", func(r *reader) { decodeLayout(r, p) }},
	} {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(f.name, pid)))
		if err != nil {
			return nil, err
		}
		if err := decodeBytes(data, f.what+" file", f.dec); err != nil {
			return nil, fmt.Errorf("decode %s pid %d: %w", f.what, pid, err)
		}
	}
	if err := Validate(p); err != nil {
		return nil, fmt.Errorf("pid %d: %w", pid, err)
	}
	return p, nil
}

// EncodedSize returns the total encoded byte size of a profile's three
// artifacts (used by the overhead tables without touching the filesystem).
func EncodedSize(p *sampler.Profile) (int64, error) {
	return int64(histSize(p) + samplesSize(p) + layoutSize(p)), nil
}

// Timestamp formats a time for artifact logging; isolated here so tests can
// exercise it.
func Timestamp(t time.Time) string { return t.UTC().Format("2006-01-02T15:04:05Z") }
