package profilefmt

// Sketch codec: the store persists per-blob sketches (internal/sketch) in a
// CRC-framed log next to the segments. The encoding mirrors the profile
// bundle's conventions — magic + version header, length-prefixed strings,
// sparse (key, count) pair sections — and is canonical: pair sections are
// the sketch's ascending arrays written in order, and decoders reject
// out-of-order or duplicate keys, so a sketch has exactly one byte
// representation and re-encoding a decoded sketch reproduces the input bit
// for bit.

import (
	"math"
	"slices"

	"vprof/internal/sketch"
)

// MagicSketch identifies a sketch section.
const MagicSketch = "VPRS"

// maxHistTotal caps the observation total of one decoded histogram. The
// statistics kernels read counts and their sums as float64; the cap keeps
// every count and every pooled total N exact there.
const maxHistTotal = MaxSamples

func sketchSize(s *sketch.Profile) int {
	n := headerSize + stringSize(s.BlobID) + 5*8 + pcCountsSize(s.Hist) + pcCountsSize(s.UnitsByPC)
	for i := range s.Vars {
		v := &s.Vars[i]
		n += stringSize(v.Func) + stringSize(v.Name) + 4 + 6*8 +
			sketchHistSize(v.Values) + sketchHistSize(v.Deltas) + sketchHistSize(v.Runs) +
			8 + 4*len(v.PCs)
	}
	return n
}

func appendSketch(b []byte, s *sketch.Profile) []byte {
	b = appendHeader(b, MagicSketch)
	b = appendString(b, s.BlobID)
	b = appendInt64s(b, s.Interval, s.TotalTicks, s.NumAlarms, s.HistLen, int64(len(s.Vars)))
	b = appendPCCounts(b, s.Hist)
	b = appendPCCounts(b, s.UnitsByPC)
	for i := range s.Vars {
		b = appendVarSummary(b, &s.Vars[i])
	}
	return b
}

// decodeSketch validates every count and key order before allocating or
// indexing (the store replays this over untrusted on-disk bytes after a
// crash).
func decodeSketch(r *reader) *sketch.Profile {
	r.header(MagicSketch, Version)
	s := &sketch.Profile{BlobID: r.str(), Interval: r.i64(), TotalTicks: r.i64(), NumAlarms: r.i64(), HistLen: r.i64()}
	nvars := r.i64()
	if r.err != nil {
		return nil
	}
	if s.Interval < 0 || s.TotalTicks < 0 || s.NumAlarms < 0 {
		r.failf("negative sketch counters (interval %d, ticks %d, alarms %d)", s.Interval, s.TotalTicks, s.NumAlarms)
	} else if s.HistLen < 0 || s.HistLen > MaxHistLen {
		r.failf("sketch hist length %d out of range", s.HistLen)
	} else if nvars < 0 || nvars > MaxLayout {
		r.failf("sketch variable count %d out of range", nvars)
	}
	s.Hist = decodePCCounts(r, s.HistLen)
	s.UnitsByPC = decodePCCounts(r, s.HistLen)
	if r.err != nil {
		return nil
	}
	s.Vars = make([]sketch.VarSummary, 0, prealloc(nvars))
	prevKey := ""
	for i := int64(0); i < nvars && r.err == nil; i++ {
		vs := decodeVarSummary(r, s.HistLen)
		key := vs.Key()
		if i > 0 && key <= prevKey {
			r.failf("sketch variables out of order at %q", key)
		}
		prevKey = key
		s.Vars = append(s.Vars, vs)
	}
	return s
}

// MarshalSketch renders a sketch as one blob.
func MarshalSketch(s *sketch.Profile) ([]byte, error) {
	return appendSketch(make([]byte, 0, sketchSize(s)), s), nil
}

// UnmarshalSketch parses a sketch blob, rejecting trailing garbage.
func UnmarshalSketch(blob []byte) (*sketch.Profile, error) {
	var s *sketch.Profile
	if err := decodeBytes(blob, "sketch", func(r *reader) { s = decodeSketch(r) }); err != nil {
		return nil, err
	}
	return s, nil
}

func appendVarSummary(b []byte, v *sketch.VarSummary) []byte {
	b = appendString(b, v.Func)
	b = appendString(b, v.Name)
	b = le.AppendUint32(b, boolWord(v.IsPointer))
	b = appendInt64s(b, v.Count, v.NumRuns)
	for _, m := range [4]float64{v.MaxRun, v.Min, v.Max, v.Sum} {
		b = le.AppendUint64(b, math.Float64bits(m))
	}
	b = appendSketchHist(b, v.Values)
	b = appendSketchHist(b, v.Deltas)
	b = appendSketchHist(b, v.Runs)
	b = appendInt64s(b, int64(len(v.PCs)))
	for _, pc := range v.PCs {
		b = le.AppendUint32(b, uint32(pc))
	}
	return b
}

func decodeVarSummary(r *reader, histLen int64) sketch.VarSummary {
	v := sketch.VarSummary{Func: r.str(), Name: r.str()}
	// Any word but 0 or 1 would re-encode differently.
	if flags := r.u32(); r.err == nil && flags > 1 {
		r.failf("sketch variable flags %d not canonical", flags)
	} else {
		v.IsPointer = flags == 1
	}
	v.Count, v.NumRuns = r.i64(), r.i64()
	if r.err == nil && (v.Count < 0 || v.Count > MaxSamples || v.NumRuns < 0 || v.NumRuns > MaxSamples) {
		r.failf("sketch variable counts (%d, %d) out of range", v.Count, v.NumRuns)
	}
	v.MaxRun, v.Min, v.Max, v.Sum = r.f64(), r.f64(), r.f64(), r.f64()
	if r.err == nil && slices.ContainsFunc([]float64{v.MaxRun, v.Min, v.Max, v.Sum}, math.IsNaN) {
		r.failf("NaN sketch moment for %s.%s", v.Func, v.Name)
	}
	v.Values = decodeSketchHist(r)
	v.Deltas = decodeSketchHist(r)
	v.Runs = decodeSketchHist(r)
	npcs := r.i64()
	if r.err == nil && (npcs < 0 || npcs > MaxHistLen) {
		r.failf("sketch PC count %d out of range", npcs)
	}
	if npcs == 0 || !r.records(npcs, 4, "sketch PCs") {
		return v
	}
	v.PCs = make([]int32, npcs)
	for i := range v.PCs {
		pc := int32(r.u32())
		if int64(pc) < 0 || int64(pc) >= histLen {
			r.failf("sketch PC %d out of range", pc)
		} else if i > 0 && pc <= v.PCs[i-1] {
			r.failf("sketch PCs out of order at %d", pc)
		}
		v.PCs[i] = pc
	}
	return v
}

// A per-PC count is written as its length, then its ascending (pc, count)
// pairs.

func pcCountsSize(m sketch.PCCounts) int { return 8 + pairRecord*len(m) }

func appendPCCounts(b []byte, m sketch.PCCounts) []byte {
	b = appendInt64s(b, int64(len(m)))
	for _, e := range m {
		b = appendInt64s(b, int64(e.Key), e.Count)
	}
	return b
}

func decodePCCounts(r *reader, histLen int64) sketch.PCCounts {
	n := r.i64()
	if r.err == nil && (n < 0 || n > histLen) {
		r.failf("sketch pc-count entries %d out of range", n)
	}
	if n == 0 || !r.records(n, pairRecord, "sketch pc counts") {
		return nil
	}
	out := make(sketch.PCCounts, n)
	prev := int64(-1)
	for i := range out {
		pc, c := r.i64(), r.i64()
		switch {
		case pc < 0 || pc >= histLen:
			r.failf("sketch pc %d out of range", pc)
		case pc <= prev:
			r.failf("sketch pcs out of order at %d", pc)
		case c <= 0:
			r.failf("sketch pc count %d not positive", c)
		}
		if r.err != nil {
			return nil
		}
		prev = pc
		out[i] = sketch.Pair[int32]{Key: int32(pc), Count: c}
	}
	return out
}

// A histogram is written as its length, then its ascending (value, count)
// pairs.

func sketchHistSize(h sketch.Hist) int { return 8 + pairRecord*len(h) }

func appendSketchHist(b []byte, h sketch.Hist) []byte {
	b = appendInt64s(b, int64(len(h)))
	for _, e := range h {
		b = le.AppendUint64(b, math.Float64bits(e.Key))
		b = appendInt64s(b, e.Count)
	}
	return b
}

func decodeSketchHist(r *reader) sketch.Hist {
	n := r.i64()
	if r.err == nil && (n < 0 || n > MaxSamples) {
		r.failf("sketch histogram entries %d out of range", n)
	}
	if n == 0 || !r.records(n, pairRecord, "sketch histogram entries") {
		return nil
	}
	h := make(sketch.Hist, n)
	prev := math.Inf(-1)
	var total int64
	for i := range h {
		k, c := r.f64(), r.i64()
		switch {
		case math.IsNaN(k):
			r.failf("NaN sketch histogram value")
		case k <= prev:
			r.failf("sketch histogram values out of order at %g", k)
		case c <= 0:
			r.failf("sketch histogram count %d not positive", c)
		case c > maxHistTotal-total:
			r.failf("sketch histogram total exceeds %d", int64(maxHistTotal))
		}
		if r.err != nil {
			return nil
		}
		total += c
		prev = k
		h[i] = sketch.Pair[float64]{Key: k, Count: c}
	}
	return h
}
