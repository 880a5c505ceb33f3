package sampler_test

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"vprof/internal/bugs"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
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

// TestRecordingBufferReuseLeaksNothing profiles a small run, a large one
// (u3 buggy, 86k samples) that grows the pooled buffers, and the small run
// again: profiles returned earlier must not change, and the repeat must
// equal the first run exactly.
func TestRecordingBufferReuseLeaksNothing(t *testing.T) {
	b13, u3 := build(t, "b13"), build(t, "u3")

	first, firstRes := b13.ProfileNormal(0)
	firstRes.Recycle()
	requireExactSamples(t, "b13 merged", first)
	requireExactSamples(t, "b13 per-process", firstRes.Profiles...)
	snapshot := cloneProfile(first)
	var procSnapshots []*sampler.Profile
	for _, p := range firstRes.Profiles {
		procSnapshots = append(procSnapshots, cloneProfile(p))
	}

	big, bigRes := u3.ProfileBuggy(0)
	bigRes.Recycle()
	if len(big.Samples) < 80000 {
		t.Fatalf("u3 buggy run 0 recorded %d samples, want a large profile", len(big.Samples))
	}
	requireExactSamples(t, "u3 merged", big)
	requireExactSamples(t, "u3 per-process", bigRes.Profiles...)

	again, againRes := b13.ProfileNormal(0)
	againRes.Recycle()
	requireExactSamples(t, "b13 repeat", again)
	requireSameProfile(t, "b13 repeat vs first", again, first)

	requireSameProfile(t, "b13 merged after later runs", first, snapshot)
	for i, p := range firstRes.Profiles {
		requireSameProfile(t, "b13 per-process after later runs", p, procSnapshots[i])
	}
}

// TestParallelProfileRunsMatchSequential fans eight runs of differently
// sized profiles over eight workers, so pooled buffers pass between
// goroutines, and compares them with the same runs done one by one.
func TestParallelProfileRunsMatchSequential(t *testing.T) {
	built := []*bugs.Built{build(t, "b13"), build(t, "u3"), build(t, "b8"), build(t, "b1")}
	run := func(i int) *sampler.Profile {
		b := built[i%len(built)]
		var p *sampler.Profile
		var res *sampler.RunResult
		if i%2 == 0 {
			p, res = b.ProfileNormal(i / len(built))
		} else {
			p, res = b.ProfileBuggy(i / len(built))
		}
		res.Recycle()
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

// TestMergeProfilesAllocatesOnce bounds the bytes MergeProfiles allocates
// for a 3-process run: the merged sample array once, at its final size,
// plus a small constant for the histogram and layout. Growing the array by
// appending from nil allocates about twice its final size.
func TestMergeProfilesAllocatesOnce(t *testing.T) {
	b8 := build(t, "b8")
	res := sampler.ProfileRun(b8.Prog, b8.Meta, b8.W.BuggyConfig(0), sampler.Options{Interval: bugs.DefaultInterval})
	res.Recycle()
	if len(res.Profiles) != 3 {
		t.Fatalf("b8 run has %d processes, want 3", len(res.Profiles))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	merged := sampler.MergeProfiles(res.Profiles)
	runtime.ReadMemStats(&after)

	const slack = 32 << 10
	samplesBytes := uint64(len(merged.Samples)) * uint64(unsafe.Sizeof(sampler.Sample{}))
	limit := samplesBytes + samplesBytes/10 + slack
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("MergeProfiles allocated %d bytes for %d bytes of samples, limit %d", got, samplesBytes, limit)
	}
}
