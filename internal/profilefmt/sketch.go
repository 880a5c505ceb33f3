package profilefmt

// Sketch codec: the store persists per-blob sketches (internal/sketch) in a
// CRC-framed log next to the segments. The encoding mirrors the profile
// bundle's conventions — magic + version header, length-prefixed strings,
// sparse (key, count) pair sections — and is canonical: map sections are
// written in strictly ascending key order and decoders reject out-of-order
// or duplicate keys, so a sketch has exactly one byte representation and
// re-encoding a decoded sketch reproduces the input bit for bit.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"vprof/internal/sketch"
)

// MagicSketch identifies a sketch section.
const MagicSketch = "VPRS"

// maxHistTotal caps the observation total of one decoded histogram,
// bounding what Expand() can be made to allocate.
const maxHistTotal = MaxSamples

// EncodeSketch writes a sketch in canonical form.
func EncodeSketch(w io.Writer, s *sketch.Profile) error {
	if err := writeHeader(w, MagicSketch); err != nil {
		return err
	}
	if err := writeString(w, s.BlobID); err != nil {
		return err
	}
	hdr := []int64{s.Interval, s.TotalTicks, s.NumAlarms, s.HistLen, int64(len(s.Vars))}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := writePCCounts(w, s.Hist); err != nil {
		return err
	}
	if err := writePCCounts(w, s.UnitsByPC); err != nil {
		return err
	}
	for i := range s.Vars {
		if err := encodeVarSummary(w, &s.Vars[i]); err != nil {
			return err
		}
	}
	return nil
}

// DecodeSketch reads one sketch, validating every count and key order
// before allocating or indexing (the store replays this over untrusted
// on-disk bytes after a crash).
func DecodeSketch(r io.Reader) (*sketch.Profile, error) {
	if err := readHeader(r, MagicSketch); err != nil {
		return nil, err
	}
	blobID, err := readString(r)
	if err != nil {
		return nil, err
	}
	var hdr [5]int64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	if hdr[0] < 0 || hdr[1] < 0 || hdr[2] < 0 {
		return nil, fmt.Errorf("profilefmt: negative sketch counters (interval %d, ticks %d, alarms %d)",
			hdr[0], hdr[1], hdr[2])
	}
	if hdr[3] < 0 || hdr[3] > MaxHistLen {
		return nil, fmt.Errorf("profilefmt: sketch hist length %d out of range", hdr[3])
	}
	if hdr[4] < 0 || hdr[4] > MaxLayout {
		return nil, fmt.Errorf("profilefmt: sketch variable count %d out of range", hdr[4])
	}
	s := &sketch.Profile{
		BlobID:     blobID,
		Interval:   hdr[0],
		TotalTicks: hdr[1],
		NumAlarms:  hdr[2],
		HistLen:    hdr[3],
	}
	if s.Hist, err = readPCCounts(r, hdr[3]); err != nil {
		return nil, err
	}
	if s.UnitsByPC, err = readPCCounts(r, hdr[3]); err != nil {
		return nil, err
	}
	s.Vars = make([]sketch.VarSummary, 0, prealloc(hdr[4]))
	prevKey := ""
	for i := int64(0); i < hdr[4]; i++ {
		vs, err := decodeVarSummary(r, hdr[3])
		if err != nil {
			return nil, err
		}
		key := vs.Key()
		if i > 0 && key <= prevKey {
			return nil, fmt.Errorf("profilefmt: sketch variables out of order at %q", key)
		}
		prevKey = key
		s.Vars = append(s.Vars, vs)
	}
	return s, nil
}

// MarshalSketch renders a sketch as one blob.
func MarshalSketch(s *sketch.Profile) ([]byte, error) {
	var b bytes.Buffer
	if err := EncodeSketch(&b, s); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// UnmarshalSketch parses a sketch blob, rejecting trailing garbage.
func UnmarshalSketch(blob []byte) (*sketch.Profile, error) {
	r := bytes.NewReader(blob)
	s, err := DecodeSketch(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("profilefmt: %d trailing bytes after sketch", r.Len())
	}
	return s, nil
}

func encodeVarSummary(w io.Writer, v *sketch.VarSummary) error {
	if err := writeString(w, v.Func); err != nil {
		return err
	}
	if err := writeString(w, v.Name); err != nil {
		return err
	}
	flags := int32(0)
	if v.IsPointer {
		flags = 1
	}
	if err := binary.Write(w, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, [2]int64{v.Count, v.NumRuns}); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, [4]float64{v.MaxRun, v.Min, v.Max, v.Sum}); err != nil {
		return err
	}
	for _, h := range []sketch.Hist{v.Values, v.Deltas, v.Runs} {
		if err := writeHist(w, h); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(v.PCs))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, v.PCs)
}

func decodeVarSummary(r io.Reader, histLen int64) (sketch.VarSummary, error) {
	var v sketch.VarSummary
	var err error
	if v.Func, err = readString(r); err != nil {
		return v, err
	}
	if v.Name, err = readString(r); err != nil {
		return v, err
	}
	var flags int32
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return v, err
	}
	v.IsPointer = flags != 0
	var counts [2]int64
	if err := binary.Read(r, binary.LittleEndian, &counts); err != nil {
		return v, err
	}
	if counts[0] < 0 || counts[0] > MaxSamples || counts[1] < 0 || counts[1] > MaxSamples {
		return v, fmt.Errorf("profilefmt: sketch variable counts (%d, %d) out of range", counts[0], counts[1])
	}
	v.Count, v.NumRuns = counts[0], counts[1]
	var moments [4]float64
	if err := binary.Read(r, binary.LittleEndian, &moments); err != nil {
		return v, err
	}
	for _, m := range moments {
		if math.IsNaN(m) {
			return v, fmt.Errorf("profilefmt: NaN sketch moment for %s.%s", v.Func, v.Name)
		}
	}
	v.MaxRun, v.Min, v.Max, v.Sum = moments[0], moments[1], moments[2], moments[3]
	for _, dst := range []*sketch.Hist{&v.Values, &v.Deltas, &v.Runs} {
		h, err := readHist(r)
		if err != nil {
			return v, err
		}
		*dst = h
	}
	var npcs int64
	if err := binary.Read(r, binary.LittleEndian, &npcs); err != nil {
		return v, err
	}
	if npcs < 0 || npcs > MaxHistLen {
		return v, fmt.Errorf("profilefmt: sketch PC count %d out of range", npcs)
	}
	if npcs > 0 {
		v.PCs = make([]int32, npcs)
		if err := binary.Read(r, binary.LittleEndian, v.PCs); err != nil {
			return v, err
		}
		for i, pc := range v.PCs {
			if int64(pc) < 0 || int64(pc) >= histLen {
				return v, fmt.Errorf("profilefmt: sketch PC %d out of range", pc)
			}
			if i > 0 && pc <= v.PCs[i-1] {
				return v, fmt.Errorf("profilefmt: sketch PCs out of order at %d", pc)
			}
		}
	}
	return v, nil
}

// writePCCounts writes a sparse pc -> count map as ascending (pc, count)
// pairs.
func writePCCounts(w io.Writer, m map[int32]int64) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(m))); err != nil {
		return err
	}
	pcs := make([]int32, 0, len(m))
	for pc := range m {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		if err := binary.Write(w, binary.LittleEndian, [2]int64{int64(pc), m[pc]}); err != nil {
			return err
		}
	}
	return nil
}

func readPCCounts(r io.Reader, histLen int64) (map[int32]int64, error) {
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 0 || n > histLen {
		return nil, fmt.Errorf("profilefmt: sketch pc-count entries %d out of range", n)
	}
	out := make(map[int32]int64, prealloc(n))
	prev := int64(-1)
	for i := int64(0); i < n; i++ {
		var pair [2]int64
		if err := binary.Read(r, binary.LittleEndian, &pair); err != nil {
			return nil, err
		}
		if pair[0] < 0 || pair[0] >= histLen {
			return nil, fmt.Errorf("profilefmt: sketch pc %d out of range", pair[0])
		}
		if pair[0] <= prev {
			return nil, fmt.Errorf("profilefmt: sketch pcs out of order at %d", pair[0])
		}
		if pair[1] <= 0 {
			return nil, fmt.Errorf("profilefmt: sketch pc count %d not positive", pair[1])
		}
		prev = pair[0]
		out[int32(pair[0])] = pair[1]
	}
	return out, nil
}

// writeHist writes a histogram as ascending (value, count) pairs.
func writeHist(w io.Writer, h sketch.Hist) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(h))); err != nil {
		return err
	}
	for _, k := range h.Keys() {
		if err := binary.Write(w, binary.LittleEndian, k); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, h[k]); err != nil {
			return err
		}
	}
	return nil
}

func readHist(r io.Reader) (sketch.Hist, error) {
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 0 || n > MaxSamples {
		return nil, fmt.Errorf("profilefmt: sketch histogram entries %d out of range", n)
	}
	if n == 0 {
		return nil, nil
	}
	h := make(sketch.Hist, prealloc(n))
	prev := math.Inf(-1)
	var total int64
	for i := int64(0); i < n; i++ {
		var k float64
		if err := binary.Read(r, binary.LittleEndian, &k); err != nil {
			return nil, err
		}
		var c int64
		if err := binary.Read(r, binary.LittleEndian, &c); err != nil {
			return nil, err
		}
		if math.IsNaN(k) {
			return nil, fmt.Errorf("profilefmt: NaN sketch histogram value")
		}
		if k <= prev {
			return nil, fmt.Errorf("profilefmt: sketch histogram values out of order at %g", k)
		}
		if c <= 0 {
			return nil, fmt.Errorf("profilefmt: sketch histogram count %d not positive", c)
		}
		total += c
		if total > maxHistTotal {
			return nil, fmt.Errorf("profilefmt: sketch histogram total exceeds %d", int64(maxHistTotal))
		}
		prev = k
		h[k] = c
	}
	return h, nil
}
