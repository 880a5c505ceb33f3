package sampler_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"vprof/internal/bugs"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
	"vprof/internal/vm"
)

func TestSampleIs40Bytes(t *testing.T) {
	if got := unsafe.Sizeof(sampler.Sample{}); got != 40 {
		t.Fatalf("sizeof(Sample) = %d, want 40", got)
	}
}

func build(t *testing.T, id string) *bugs.Built {
	t.Helper()
	b, err := bugs.ByID(id).Build()
	if err != nil {
		t.Fatalf("build %s: %v", id, err)
	}
	return b
}

// cloneProfile deep-copies the slices a pooled buffer could alias.
func cloneProfile(p *sampler.Profile) *sampler.Profile {
	c := *p
	c.Hist = slices.Clone(p.Hist)
	c.Samples = slices.Clone(p.Samples)
	c.Layout = slices.Clone(p.Layout)
	return &c
}

// requireSameProfile compares two profiles field for field, except the
// wall-clock InitDuration.
func requireSameProfile(t *testing.T, what string, got, want *sampler.Profile) {
	t.Helper()
	g, w := *got, *want
	g.InitDuration, w.InitDuration = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: profile differs (%d vs %d samples)", what, len(got.Samples), len(want.Samples))
	}
}

func requireExactSamples(t *testing.T, what string, ps ...*sampler.Profile) {
	t.Helper()
	for i, p := range ps {
		if len(p.Samples) != cap(p.Samples) {
			t.Fatalf("%s[%d]: len(Samples) = %d, cap = %d", what, i, len(p.Samples), cap(p.Samples))
		}
	}
}

// profileRun profiles run 0 of b, normal or buggy, without recycling it.
func profileRun(b *bugs.Built, buggy bool) *sampler.RunResult {
	if buggy {
		return sampler.ProfileRun(b.Prog, b.Meta, b.W.BuggyConfig(0), sampler.Options{Interval: bugs.DefaultInterval})
	}
	return sampler.ProfileRun(b.NormalProg, b.NormalMeta, b.W.NormalConfig(0), sampler.Options{Interval: bugs.DefaultInterval})
}

// mergeAndRecycle merges a run's processes, snapshots its per-process
// profiles, recycles the run and checks that Recycle emptied them.
func mergeAndRecycle(t *testing.T, what string, res *sampler.RunResult) (merged *sampler.Profile, procs []*sampler.Profile) {
	t.Helper()
	requireExactSamples(t, what+" per-process", res.Profiles...)
	for _, p := range res.Profiles {
		procs = append(procs, cloneProfile(p))
	}
	merged = sampler.MergeProfiles(res.Profiles)
	requireExactSamples(t, what+" merged", merged)
	res.Recycle()
	for i, p := range res.Profiles {
		if p.Samples != nil {
			t.Fatalf("%s[%d]: %d samples left after Recycle", what, i, len(p.Samples))
		}
	}
	return merged, procs
}

// TestRecordingBufferReuseLeaksNothing profiles a small run, a large one
// (u3 buggy, 86k samples) that grows the pooled buffers, and the small run
// again: merged profiles returned earlier must not change, and the repeat
// must equal the first run exactly, per process (Link chains included)
// and merged.
func TestRecordingBufferReuseLeaksNothing(t *testing.T) {
	b13, u3 := build(t, "b13"), build(t, "u3")

	first, firstProcs := mergeAndRecycle(t, "b13", profileRun(b13, false))
	snapshot := cloneProfile(first)

	big, _ := mergeAndRecycle(t, "u3", profileRun(u3, true))
	if len(big.Samples) < 80000 {
		t.Fatalf("u3 buggy run 0 recorded %d samples, want a large profile", len(big.Samples))
	}

	again, againProcs := mergeAndRecycle(t, "b13 repeat", profileRun(b13, false))
	for i, p := range againProcs {
		requireSameProfile(t, "b13 per-process repeat vs first", p, firstProcs[i])
	}
	requireSameProfile(t, "b13 repeat vs first", again, first)
	requireSameProfile(t, "b13 merged after later runs", first, snapshot)
}

// TestParallelProfileRunsMatchSequential fans eight runs of differently
// sized profiles over eight workers, so pooled buffers pass between
// goroutines, and compares them with the same runs done one by one.
func TestParallelProfileRunsMatchSequential(t *testing.T) {
	built := []*bugs.Built{build(t, "b13"), build(t, "u3"), build(t, "b8"), build(t, "b1")}
	run := func(i int) *sampler.Profile {
		b := built[i%len(built)]
		var p *sampler.Profile
		if i%2 == 0 {
			p, _ = b.ProfileNormal(i / len(built))
		} else {
			p, _ = b.ProfileBuggy(i / len(built))
		}
		return p
	}
	const runs = 8
	par := parallel.Map(8, runs, run)
	for i := 0; i < runs; i++ {
		seq := run(i)
		requireExactSamples(t, "parallel", par[i])
		requireSameProfile(t, "parallel vs sequential", par[i], seq)
	}
}

// b8Samples is the merged sample count of b8's buggy run 0 (3 processes).
const b8Samples = 44512

// TestMergeProfilesAllocatesOnce bounds the bytes MergeProfiles allocates
// for a 3-process run: the merged sample array once, at its final size,
// plus a small constant for the histogram and layout. Growing the array by
// appending from nil allocates about twice its final size.
func TestMergeProfilesAllocatesOnce(t *testing.T) {
	b8 := build(t, "b8")
	res := profileRun(b8, true)
	defer res.Recycle()
	if len(res.Profiles) != 3 {
		t.Fatalf("b8 run has %d processes, want 3", len(res.Profiles))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	merged := sampler.MergeProfiles(res.Profiles)
	runtime.ReadMemStats(&after)

	if len(merged.Samples) != b8Samples {
		t.Fatalf("b8 merged profile holds %d samples, want %d", len(merged.Samples), b8Samples)
	}
	const slack = 32 << 10
	samplesBytes := uint64(len(merged.Samples)) * uint64(unsafe.Sizeof(sampler.Sample{}))
	limit := samplesBytes + samplesBytes/10 + slack
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("MergeProfiles allocated %d bytes for %d bytes of samples, limit %d", got, samplesBytes, limit)
	}
}

// pooling reports whether sync.Pool keeps what it is given: under the race
// detector it drops a random quarter of its Puts.
func pooling() bool {
	bi, ok := debug.ReadBuildInfo()
	return !ok || !slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestProfileRunAllocation: once the pool holds b8's recording buffers, a
// profiled run of b8 (3 processes), its merge and its Recycle allocate
// less than 1.5 times the merged sample bytes. The merge is the one copy
// of the samples; the per-process profiles record into pooled buffers.
func TestProfileRunAllocation(t *testing.T) {
	if !pooling() {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	b8 := build(t, "b8")
	cycle := func() *sampler.Profile {
		res := profileRun(b8, true)
		merged := sampler.MergeProfiles(res.Profiles)
		res.Recycle()
		return merged
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	for i := 0; i < runs; i++ {
		n += len(cycle().Samples)
	}
	runtime.ReadMemStats(&after)
	samplesBytes := uint64(n) * uint64(unsafe.Sizeof(sampler.Sample{}))
	got := after.TotalAlloc - before.TotalAlloc
	if got*2 > samplesBytes*3 {
		t.Fatalf("%d profiled runs allocated %d bytes for %d bytes of merged samples (%.2fx), want under 1.5x",
			runs, got, samplesBytes, float64(got)/float64(samplesBytes))
	}
	t.Logf("%.2fx the merged sample bytes", float64(got)/float64(samplesBytes))
}

// TestCanceledRunMergesBeforeRecycle cancels a b8 run midway: the partial
// result's merge, taken before Recycle, equals the merge of its
// per-process snapshots and does not change when later runs reuse the
// recording buffers.
func TestCanceledRunMergesBeforeRecycle(t *testing.T) {
	b8 := build(t, "b8")
	cfg := b8.W.BuggyConfig(0)
	returns := 0
	cfg.OnReturn = func(int, vm.Value) { returns++ }
	full := sampler.ProfileRun(b8.Prog, b8.Meta, cfg, sampler.Options{Interval: bugs.DefaultInterval})
	fullSamples := len(sampler.MergeProfiles(full.Profiles).Samples)
	full.Recycle()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cutAt, seen := returns/2, 0
	cfg.OnReturn = func(int, vm.Value) {
		if seen++; seen == cutAt {
			cancel()
		}
	}
	res, err := sampler.ProfileRunContext(ctx, b8.Prog, b8.Meta, cfg, sampler.Options{Interval: bugs.DefaultInterval})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: error %v, want context.Canceled", err)
	}
	partial, procs := mergeAndRecycle(t, "b8 canceled", res)
	if len(partial.Samples) == 0 || len(partial.Samples) >= fullSamples {
		t.Fatalf("canceled run merged %d samples, full run %d: want a partial profile", len(partial.Samples), fullSamples)
	}
	snapshot := cloneProfile(partial)
	requireSameProfile(t, "partial merge vs merge of snapshots", sampler.MergeProfiles(procs), partial)

	mergeAndRecycle(t, "b8 after cancel", profileRun(b8, true))
	requireSameProfile(t, "partial merge after a later run", partial, snapshot)
}

// u3Samples is the sample count of u3's buggy run 0 (1 process).
const u3Samples = 86133

// drainPools empties every sync.Pool: a pooled item survives one GC in the
// victim cache and is dropped at the second.
func drainPools() {
	runtime.GC()
	runtime.GC()
}

// draw builds a profiler for b's buggy build, which draws a recording
// buffer.
func draw(b *bugs.Built) *sampler.Profiler {
	return sampler.New(b.Prog, b.Meta, sampler.Options{Interval: bugs.DefaultInterval})
}

// TestMarkSizesDraws: after a u3 buggy recording, every profiler draws a
// recording buffer with room for it, whether the pool is empty or holds a
// smaller buffer, so a later large recording never regrows.
func TestMarkSizesDraws(t *testing.T) {
	b1, u3 := build(t, "b1"), build(t, "u3")
	mergeAndRecycle(t, "u3", profileRun(u3, true))
	mark := sampler.SampleMark()
	if mark < u3Samples {
		t.Fatalf("mark %d after a %d-sample recording", mark, u3Samples)
	}
	drainPools()
	if c := draw(b1).RecordingCap(); c < mark {
		t.Fatalf("draw from an empty pool: capacity %d, mark %d", c, mark)
	}

	drainPools()
	draw(b1).FinishRecording(make([]sampler.Sample, 10, 1000)).Recycle()
	if got := sampler.SampleMark(); got != mark {
		t.Fatalf("a 10-sample recording moved the mark from %d to %d", mark, got)
	}
	if c := draw(b1).RecordingCap(); c < mark {
		t.Fatalf("draw from a pool holding a 1000-sample buffer: capacity %d, mark %d", c, mark)
	}
}

// TestMarkIgnoresRecordingOverCeiling: a recording over the ceiling
// neither raises the mark nor goes back to the pool.
func TestMarkIgnoresRecordingOverCeiling(t *testing.T) {
	b1 := build(t, "b1")
	before := sampler.SampleMark()
	drainPools()
	huge := draw(b1).FinishRecording(make([]sampler.Sample, sampler.MaxPooledSamples+1))
	if got := sampler.SampleMark(); got != before {
		t.Fatalf("a recording over the ceiling moved the mark from %d to %d", before, got)
	}
	huge.Recycle()
	if c := draw(b1).RecordingCap(); c > sampler.MaxPooledSamples {
		t.Fatalf("draw after recycling a recording over the ceiling: capacity %d, ceiling %d", c, sampler.MaxPooledSamples)
	}
}

// TestMixedProfileRunAllocation alternates b1 (20k samples) and u3 buggy
// (86k) runs with the pools drained before each, as the collections of a
// long diagnosis drain them. Each draw allocates the mark once instead of
// regrowing from nil: the runs, merges and Recycles allocate under 3.2
// times the merged sample bytes (2.64x, against 6.12x when every draw
// regrew).
func TestMixedProfileRunAllocation(t *testing.T) {
	if !pooling() {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	b1, u3 := build(t, "b1"), build(t, "u3")
	cycle := func(b *bugs.Built, buggy bool) (alloc uint64, samples int) {
		drainPools()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := profileRun(b, buggy)
		merged := sampler.MergeProfiles(res.Profiles)
		res.Recycle()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, len(merged.Samples)
	}
	cycle(u3, true)
	var got uint64
	n := 0
	for i := 0; i < 3; i++ {
		for _, b := range []*bugs.Built{b1, u3} {
			a, s := cycle(b, b == u3)
			got += a
			n += s
		}
	}
	samplesBytes := uint64(n) * uint64(unsafe.Sizeof(sampler.Sample{}))
	ratio := float64(got) / float64(samplesBytes)
	if ratio > 3.2 {
		t.Fatalf("alternating runs allocated %d bytes for %d bytes of merged samples (%.2fx), want under 3.2x",
			got, samplesBytes, ratio)
	}
	t.Logf("%.2fx the merged sample bytes", ratio)
}

// TestNoMetadataDrawsNoBuffer: a profiler without metadata can record no
// value sample, so a nil-metadata b1 run, after a u3 recording has raised
// the mark, allocates well under the mark's bytes from empty pools.
func TestNoMetadataDrawsNoBuffer(t *testing.T) {
	b1, u3 := build(t, "b1"), build(t, "u3")
	mergeAndRecycle(t, "u3", profileRun(u3, true))
	markBytes := uint64(sampler.SampleMark()) * uint64(unsafe.Sizeof(sampler.Sample{}))
	drainPools()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := sampler.ProfileRun(b1.Prog, nil, b1.W.BuggyConfig(1), sampler.Options{Interval: bugs.DefaultInterval})
	runtime.ReadMemStats(&after)
	merged, _ := mergeAndRecycle(t, "b1 no metadata", res)
	if len(merged.Samples) != 0 {
		t.Fatalf("b1 run without metadata recorded %d value samples", len(merged.Samples))
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got*4 > markBytes {
		t.Fatalf("b1 run without metadata allocated %d bytes, want under a quarter of the mark's %d", got, markBytes)
	}
	t.Logf("%d bytes against the mark's %d", got, markBytes)
}
