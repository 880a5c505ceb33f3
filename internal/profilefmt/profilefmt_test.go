package profilefmt_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vprof/internal/profilefmt"
	"vprof/internal/profilefmt/profilefmttest"
	"vprof/internal/sampler"
)

func sampleProfile() *sampler.Profile {
	return &sampler.Profile{
		Pid:        3,
		File:       "prog.vp",
		Interval:   97,
		TotalTicks: 123456,
		NumAlarms:  1272,
		Hist:       []int64{0, 5, 0, 0, 9, 1, 0, 0, 0, 2},
		Samples: []sampler.Sample{
			{Layout: 0, VarNode: 0, PC: 4, StackDepth: 0, Value: 42, Tick: 97, Link: -1},
			{Layout: 1, VarNode: 2, PC: 5, StackDepth: 1, Value: -7, Ptr: true, Tick: 194, Link: -1},
			{Layout: 0, VarNode: 0, PC: 4, StackDepth: 0, Value: 43, Tick: 291, Link: 0},
		},
		Layout: []sampler.LayoutEntry{
			{Func: "scan", Name: "available_mem"},
			{Func: "#global", Name: "buf_ptr", IsPointer: true},
		},
	}
}

func TestRoundTripInMemory(t *testing.T) {
	p := sampleProfile()
	var hb, vb, lb bytes.Buffer
	if err := profilefmt.EncodeHist(&hb, p); err != nil {
		t.Fatal(err)
	}
	if err := profilefmt.EncodeSamples(&vb, p); err != nil {
		t.Fatal(err)
	}
	if err := profilefmt.EncodeLayout(&lb, p); err != nil {
		t.Fatal(err)
	}
	q, err := profilefmt.DecodeHist(&hb)
	if err != nil {
		t.Fatal(err)
	}
	if err := profilefmt.DecodeSamples(&vb, q); err != nil {
		t.Fatal(err)
	}
	if err := profilefmt.DecodeLayout(&lb, q); err != nil {
		t.Fatal(err)
	}
	assertEqualProfiles(t, p, q)
}

func assertEqualProfiles(t *testing.T, p, q *sampler.Profile) {
	t.Helper()
	if q.Pid != p.Pid || q.File != p.File || q.Interval != p.Interval ||
		q.TotalTicks != p.TotalTicks || q.NumAlarms != p.NumAlarms {
		t.Fatalf("header mismatch: %+v vs %+v", q, p)
	}
	if len(q.Hist) != len(p.Hist) {
		t.Fatalf("hist length %d vs %d", len(q.Hist), len(p.Hist))
	}
	for i := range p.Hist {
		if q.Hist[i] != p.Hist[i] {
			t.Fatalf("hist[%d] = %d, want %d", i, q.Hist[i], p.Hist[i])
		}
	}
	if len(q.Samples) != len(p.Samples) {
		t.Fatalf("samples %d vs %d", len(q.Samples), len(p.Samples))
	}
	for i := range p.Samples {
		if q.Samples[i] != p.Samples[i] {
			t.Fatalf("sample %d: %+v vs %+v", i, q.Samples[i], p.Samples[i])
		}
	}
	if len(q.Layout) != len(p.Layout) {
		t.Fatalf("layout %d vs %d", len(q.Layout), len(p.Layout))
	}
	for i := range p.Layout {
		if q.Layout[i] != p.Layout[i] {
			t.Fatalf("layout %d: %+v vs %+v", i, q.Layout[i], p.Layout[i])
		}
	}
}

func TestWriteReadDir(t *testing.T) {
	dir := t.TempDir()
	p1 := sampleProfile()
	p2 := sampleProfile()
	p2.Pid = 1
	p2.Samples = p2.Samples[:1]
	if err := profilefmt.WriteDir(dir, p1); err != nil {
		t.Fatal(err)
	}
	if err := profilefmt.WriteDir(dir, p2); err != nil {
		t.Fatal(err)
	}
	profiles, err := profilefmt.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("read %d profiles, want 2", len(profiles))
	}
	// pid order.
	if profiles[0].Pid != 1 || profiles[1].Pid != 3 {
		t.Fatalf("pids = %d, %d", profiles[0].Pid, profiles[1].Pid)
	}
	assertEqualProfiles(t, p2, profiles[0])
	assertEqualProfiles(t, p1, profiles[1])
}

// TestSampleRecordExtremes: every field at its extremes, with the largest
// pc and tick jumps between samples, round-trips through the version-2
// sample section and re-encodes to the same bytes.
func TestSampleRecordExtremes(t *testing.T) {
	p := &sampler.Profile{}
	for _, v := range []struct {
		i32 int32
		i64 int64
	}{{math.MinInt32, math.MinInt64}, {math.MaxInt32, math.MaxInt64}, {-1, -1}, {0, 0}, {math.MinInt32, math.MaxInt64}} {
		p.Samples = append(p.Samples, sampler.Sample{Layout: v.i32, VarNode: v.i32, PC: v.i32, StackDepth: v.i32,
			Value: v.i64, Tick: v.i64, Link: v.i32, Ptr: v.i32 < 0})
	}
	var vb bytes.Buffer
	if err := profilefmt.EncodeSamples(&vb, p); err != nil {
		t.Fatal(err)
	}
	enc := bytes.Clone(vb.Bytes())
	q := &sampler.Profile{}
	if err := profilefmt.DecodeSamples(&vb, q); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Samples, q.Samples) {
		t.Fatalf("samples %+v, want %+v", q.Samples, p.Samples)
	}
	vb.Reset()
	if err := profilefmt.EncodeSamples(&vb, q); err != nil || !bytes.Equal(vb.Bytes(), enc) {
		t.Fatalf("re-encoding changed the bytes (err %v)", err)
	}
}

// TestReadDirVersion1: a directory whose gmon_var file holds version-1
// records, as written before version 2, reads back the same profile.
func TestReadDirVersion1(t *testing.T) {
	dir := t.TempDir()
	p := sampleProfile()
	if err := profilefmt.WriteDir(dir, p); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gmon_var.3.out"), profilefmttest.SamplesV1(p), 0o666); err != nil {
		t.Fatal(err)
	}
	profiles, err := profilefmt.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualProfiles(t, p, profiles[0])
}

func TestBadMagic(t *testing.T) {
	p := sampleProfile()
	var hb bytes.Buffer
	if err := profilefmt.EncodeHist(&hb, p); err != nil {
		t.Fatal(err)
	}
	// Samples decoder must reject a histogram stream.
	if err := profilefmt.DecodeSamples(&hb, p); err == nil {
		t.Fatal("expected magic mismatch error")
	} else if !strings.Contains(err.Error(), "magic") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	p := sampleProfile()
	var vb bytes.Buffer
	if err := profilefmt.EncodeSamples(&vb, p); err != nil {
		t.Fatal(err)
	}
	raw := vb.Bytes()
	trunc := bytes.NewReader(raw[:len(raw)-5])
	q := &sampler.Profile{}
	if err := profilefmt.DecodeSamples(trunc, q); err == nil {
		t.Fatal("expected error on truncated stream")
	}
}

// TestUnmarshalRejectsSamplePCOutsideHist: a sample PC the histogram does
// not cover would fold into a sketch no decoder accepts, so the bundle is
// rejected at ingest (found by FuzzServiceHandler: a diagnosis over such a
// stored profile dereferenced a nil sketch).
func TestUnmarshalRejectsSamplePCOutsideHist(t *testing.T) {
	for _, pc := range []int32{-1, 10, 1 << 20} {
		p := sampleProfile()
		p.Samples[1].PC = pc
		blob, err := profilefmt.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := profilefmt.Unmarshal(blob); err == nil || !strings.Contains(err.Error(), "histogram") {
			t.Errorf("pc %d: err = %v, want a histogram range error", pc, err)
		}
	}
}

// TestUnmarshalRejectsNegativeHistCount: a bucket count below one would
// fold into a sketch the sketch codec rejects (found by FuzzFold).
func TestUnmarshalRejectsNegativeHistCount(t *testing.T) {
	p := sampleProfile()
	p.Hist[1] = -5
	blob, err := profilefmt.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := profilefmt.Unmarshal(blob); err == nil || !strings.Contains(err.Error(), "not positive") {
		t.Errorf("err = %v, want a non-positive count error", err)
	}
}

func TestReadDirMissingArtifacts(t *testing.T) {
	dir := t.TempDir()
	p := sampleProfile()
	if err := profilefmt.WriteDir(dir, p); err != nil {
		t.Fatal(err)
	}
	// Remove one artifact: ReadDir must fail cleanly.
	if err := removeFile(dir, "layout.3.out"); err != nil {
		t.Fatal(err)
	}
	if _, err := profilefmt.ReadDir(dir); err == nil {
		t.Fatal("expected error with missing layout file")
	}
}

func removeFile(dir, name string) error {
	return os.Remove(filepath.Join(dir, name))
}

// TestReadDirValidates: artifacts whose samples reference a layout entry
// the layout log does not have are rejected on read, as a bundle would be,
// instead of reaching MergeProfiles.
func TestReadDirValidates(t *testing.T) {
	dir := t.TempDir()
	p := sampleProfile()
	p.Samples[2].Layout = 45
	if err := profilefmt.WriteDir(dir, p); err != nil {
		t.Fatal(err)
	}
	if _, err := profilefmt.ReadDir(dir); err == nil || !strings.Contains(err.Error(), "references layout 45 of 2") {
		t.Fatalf("ReadDir err = %v, want a layout range error", err)
	}
}
