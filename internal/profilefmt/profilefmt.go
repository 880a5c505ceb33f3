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
// Encoders append to one []byte of obs's size-class pool, drawn with room
// for the sections' sizes (the samples' estimated at 8 bytes each) and
// grown by class as samples are written. Decoders read the input slice
// through a sticky-error cursor. Neither side reflects or allocates per
// record.
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

	"vprof/internal/obs"
	"vprof/internal/sampler"
)

// Magic numbers identify the three artifact kinds plus the single-blob
// bundle used for transport (store segments, HTTP ingestion).
const (
	MagicHist   = "VPRH"
	MagicVar    = "VPRV"
	MagicLayout = "VPRL"
	MagicBundle = "VPRB"
	// Version of the bundle, histogram, layout and sketch encodings.
	Version = 1
	// SampleVersion is the version of the value-sample records encoders
	// write: 2, one minimal varint per field (see appendSamples).
	// Decoders also read version 1, eight int64s per sample.
	SampleVersion = 2
)

// Decode limits. Untrusted input (the ingestion endpoint) must not be able
// to make a decoder allocate unbounded memory or index out of range; every
// count read off the wire is checked against these before use.
const (
	MaxHistLen = 1 << 22
	// MaxSamples bounds the sample section of a local artifact file;
	// MaxBundleSamples bounds an uploaded bundle, so that a 64 MiB upload
	// of minimum-size records decodes to at most 40 MiB of samples.
	MaxSamples       = 1 << 26
	MaxBundleSamples = 1 << 20
	MaxLayout        = 1 << 20
	maxString        = 1 << 20
	maxPreallocCP    = 1 << 16 // cap on trusted-count preallocation
)

// Encoded sizes of the fixed-size pieces, and the least and most bytes of
// a version-2 sample record.
const (
	headerSize     = 8  // magic + uint32 version
	sampleRecordV1 = 64 // eight int64 fields per value sample
	minRecordV2    = 7  // seven one-byte varints
	maxRecordV2    = 45 // five 5-byte varints and two 10-byte ones
	pairRecord     = 16 // one (int64 key, int64 count) pair
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

// header reads a section header and returns its version, failing the
// cursor unless the version is 1 to newest.
func (r *reader) header(magic string, newest uint32) uint32 {
	if m := r.next(4); m != nil && string(m) != magic {
		r.failf("bad magic %q, want %q", m, magic)
	}
	v := r.u32()
	if r.err == nil && (v < 1 || v > newest) {
		r.failf("unsupported version %d", v)
	}
	return v
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
	r.header(MagicHist, Version)
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
	prev := int64(-1)
	for i := int64(0); i < nz; i++ {
		pc, c := r.i64(), r.i64()
		if pc <= prev || pc >= n {
			// Ascending, as written: each histogram has one encoding.
			r.failf("pc %d out of range or order", pc)
			return p
		}
		prev = pc
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

// Sample section: header, int64 count, then one record per sample. A
// version-2 record is seven minimal uvarints:
//
//	layout, varnode  the int32's bits as a uint32
//	pc               zigzag of the change from the previous sample's pc
//	                 (from 0 for the first)
//	depth<<1 | ptr   the depth's bits as a uint32, shifted, and the flag
//	value            zigzag
//	tick             zigzag of the change from the previous sample's tick,
//	                 modulo 2^64
//	link+1           its bits as a uint32, so the -1 that ends a chain is 0
//
// The samples of one alarm share pc and tick, and a merged profile's links
// are all -1, so most records take 7 or 8 bytes. Every profile has one
// encoding: the decoder rejects non-minimal varints and out-of-range
// fields. A version-1 record, which decoders still read, is eight int64s:
// layout, varnode, pc, depth, value, ptr, tick, link.

// samplesSize is about the bytes appendSamples writes for p: real
// profiles' records average 7.3-8.5 bytes.
func samplesSize(p *sampler.Profile) int { return headerSize + 8 + 8*len(p.Samples) }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendSamples writes the sample section into b, a buffer of obs's pool,
// in batches of as many records as the room left holds at their largest,
// moving b up a class once it holds less than one.
func appendSamples(b []byte, p *sampler.Profile) []byte {
	b = le.AppendUint32(append(b, MagicVar...), SampleVersion)
	b = appendInt64s(b, int64(len(p.Samples)))
	n := len(b)
	var pc, tick int64
	for rest := p.Samples; len(rest) > 0; {
		b = obs.Grow(b[:n], maxRecordV2)
		b = b[:cap(b)]
		batch := rest[:min(len(rest), (len(b)-n)/maxRecordV2)]
		rest = rest[len(batch):]
		for i := range batch {
			s := &batch[i]
			n = putUvarint(b, n, uint64(uint32(s.Layout)))
			n = putUvarint(b, n, uint64(uint32(s.VarNode)))
			n = putUvarint(b, n, zigzag(int64(s.PC)-pc))
			n = putUvarint(b, n, uint64(uint32(s.StackDepth))<<1|uint64(boolWord(s.Ptr)))
			n = putUvarint(b, n, zigzag(s.Value))
			n = putUvarint(b, n, zigzag(s.Tick-tick))
			n = putUvarint(b, n, uint64(uint32(s.Link+1)))
			pc, tick = int64(s.PC), s.Tick
		}
	}
	return b[:n]
}

// putUvarint writes v at b[n:] and returns the index after it.
func putUvarint(b []byte, n int, v uint64) int {
	for ; v >= 0x80; v >>= 7 {
		b[n] = byte(v) | 0x80
		n++
	}
	b[n] = byte(v)
	return n + 1
}

// decodeSamples reads a sample section of either version, holding at most
// max samples, into one exact-size array, allocated only once the input
// left can hold that many records of the version's minimum size. It returns
// the layout entries the samples need (see validate): one more than the
// largest index, or MaxUint64 for a pc or link out of range or version 1.
func decodeSamples(r *reader, p *sampler.Profile, max int64) uint64 {
	v := r.header(MagicVar, SampleVersion)
	n := r.i64()
	if r.err == nil && (n < 0 || n > max) {
		r.failf("sample count %d out of range [0, %d]", n, max)
	}
	minRecord := minRecordV2
	if v == 1 {
		minRecord = sampleRecordV1
	}
	if !r.records(n, minRecord, "samples") {
		return 0
	}
	p.Samples = make([]sampler.Sample, n)
	if v == 1 {
		decodeSamplesV1(r.next(int(n)*sampleRecordV1), p.Samples)
		return math.MaxUint64
	}
	used, need, err := decodeSamplesV2(r.b, p.Samples, uint32(len(p.Hist)))
	if err != nil {
		r.failf("%v", err)
		return 0
	}
	r.b = r.b[used:]
	return need
}

func decodeSamplesV1(data []byte, out []sampler.Sample) {
	for i := range out {
		rec := data[i*sampleRecordV1 : (i+1)*sampleRecordV1]
		out[i] = sampler.Sample{
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

// decodeSamplesV2 fills out with version-2 records read from the start of
// b and returns the bytes they took and the layout entries they need.
func decodeSamplesV2(b []byte, out []sampler.Sample, hist uint32) (int, uint64, error) {
	i := 0
	var need uint64
	var pc, tick int64
	var f [7]uint64 // layout, varnode, pc, depth, value, tick, link
	for k := range out {
		for j := range f {
			switch {
			case i >= len(b):
				i = len(b) + 1
			case b[i] < 0x80: // one byte, the common case
				f[j] = uint64(b[i])
				i++
			case i+1 < len(b) && b[i+1]-1 < 0x7f:
				// Two bytes, the second neither 0 (non-minimal) nor
				// continued.
				f[j] = uint64(b[i]&0x7f) | uint64(b[i+1])<<7
				i += 2
			default:
				f[j], i = uvarintSlow(b, i)
			}
		}
		if i > len(b) {
			return 0, 0, fmt.Errorf("sample %d: truncated or non-minimal varint", k)
		}
		// pc stays in int64 range: it was an int32 and |f[2]| < 2^63.
		pc += unzigzag(f[2])
		if f[0]|f[1]|f[6] > math.MaxUint32 || f[3] >= 1<<33 || pc != int64(int32(pc)) {
			return 0, 0, fmt.Errorf("sample %d: field out of range", k)
		}
		tick += unzigzag(f[5])
		s := &out[k]
		s.Value, s.Tick = unzigzag(f[4]), tick
		s.Layout, s.VarNode, s.PC, s.StackDepth = int32(f[0]), int32(f[1]), int32(pc), int32(f[3]>>1)
		s.Link, s.Ptr = int32(uint32(f[6])-1), f[3]&1 != 0
		if uint32(pc) >= hist || f[6] > uint64(len(out)) {
			need = math.MaxUint64 // no layout mends a pc or link out of range
		}
		need = max(need, f[0]+1)
	}
	return i, need, nil
}

// uvarintSlow reads the minimal uvarint of two or more bytes at b[i:] and
// returns it with the index after it. A read that runs past b or meets a
// non-minimal or overlong encoding returns an index past len(b), from
// which every later read fails too.
func uvarintSlow(b []byte, i int) (uint64, int) {
	if i < len(b) {
		// b[i] has its continuation bit set, so a valid encoding has at
		// least two bytes and is minimal only if its last byte is not 0.
		v, n := binary.Uvarint(b[i:])
		if n > 0 && b[i+n-1] != 0 {
			return v, i + n
		}
	}
	return 0, len(b) + 1
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
	r.header(MagicLayout, Version)
	n := r.i64()
	if r.err == nil && (n < 0 || n > MaxLayout) {
		r.failf("layout count %d out of range", n)
	}
	if r.err != nil {
		return
	}
	p.Layout = make([]sampler.LayoutEntry, 0, prealloc(n))
	for i := int64(0); i < n && r.err == nil; i++ {
		fn, name, ptr := r.str(), r.str(), r.u32()
		if ptr > 1 {
			r.failf("layout pointer flag %d", ptr)
		}
		p.Layout = append(p.Layout, sampler.LayoutEntry{Func: fn, Name: name, IsPointer: ptr != 0})
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
	b := appendSamples(obs.GetBuffer(samplesSize(p)), p)
	defer obs.PutBuffer(b)
	return writeSection(w, b)
}

// DecodeSamples reads a value-sample section of either version, which must
// be all src holds, into p.
func DecodeSamples(src io.Reader, p *sampler.Profile) error {
	return decodeSection(src, "sample section", func(r *reader) { decodeSamples(r, p, MaxSamples) })
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
// three files. The bundle is encoded into a buffer of obs's pool and
// copied out: one allocation of exactly its size.
func Marshal(p *sampler.Profile) ([]byte, error) {
	b := appendHeader(obs.GetBuffer(headerSize+histSize(p)+samplesSize(p)+layoutSize(p)), MagicBundle)
	b = appendHist(b, p)
	b = appendSamples(b, p)
	b = appendLayout(obs.Grow(b, layoutSize(p)), p)
	out := make([]byte, len(b))
	copy(out, b)
	obs.PutBuffer(b)
	return out, nil
}

// Unmarshal parses a bundle blob, rejecting trailing garbage and more than
// MaxBundleSamples samples, and validates the cross-section invariants, so
// a successfully decoded profile is safe to hand to the analyzer. It reads
// sample records of either version; Marshal writes only SampleVersion, so
// a profile has one blob (and blob ID) per version it was pushed in.
func Unmarshal(blob []byte) (*sampler.Profile, error) {
	var p *sampler.Profile
	var need uint64
	err := decodeBytes(blob, "bundle", func(r *reader) {
		r.header(MagicBundle, Version)
		p = decodeHist(r)
		need = decodeSamples(r, p, MaxBundleSamples)
		decodeLayout(r, p)
	})
	if err != nil {
		return nil, err
	}
	if err := validate(p, need); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks a decoded profile's internal consistency: every value
// sample must reference an existing layout entry and a PC the histogram
// covers (the sketch folded from it is keyed by that PC), and the
// hist/alarm counters must be non-negative. Decoders check the same
// before returning untrusted input.
func Validate(p *sampler.Profile) error { return validate(p, math.MaxUint64) }

// validate is Validate for a profile whose samples need need layout
// entries: it walks them only if the layout falls short, to name the fault.
func validate(p *sampler.Profile, need uint64) error {
	if p.Interval < 0 || p.TotalTicks < 0 || p.NumAlarms < 0 {
		return fmt.Errorf("profilefmt: negative counters (interval %d, ticks %d, alarms %d)",
			p.Interval, p.TotalTicks, p.NumAlarms)
	}
	if need <= uint64(len(p.Layout)) {
		return nil
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
		enc  func(io.Writer, *sampler.Profile) error
	}{
		{"gmon.%d.out", EncodeHist},
		{"gmon_var.%d.out", EncodeSamples},
		{"layout.%d.out", EncodeLayout},
	} {
		out, err := os.Create(filepath.Join(dir, fmt.Sprintf(f.name, p.Pid)))
		if err != nil {
			return err
		}
		err = f.enc(out, p)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
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
	var need uint64
	for _, f := range []struct {
		name, what string
		dec        func(*reader)
	}{
		{"gmon.%d.out", "hist", func(r *reader) { p = decodeHist(r) }},
		{"gmon_var.%d.out", "samples", func(r *reader) { need = decodeSamples(r, p, MaxSamples) }},
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
	if err := validate(p, need); err != nil {
		return nil, fmt.Errorf("pid %d: %w", pid, err)
	}
	return p, nil
}
