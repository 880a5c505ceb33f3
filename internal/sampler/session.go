package sampler

import (
	"context"
	"time"

	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/parallel"
	"vprof/internal/vm"
)

// RunResult is the outcome of one profiled execution of a program's process
// tree: one Profile per process (pid order, root first), plus the raw
// processes for callers that need VM state (outputs, branch counts). Each
// per-process Profile's Samples lives in a pooled recording buffer, valid
// until Recycle.
type RunResult struct {
	Profiles []*Profile
	Procs    []vm.Process
	// WallTime is the real time spent executing (for overhead reporting).
	WallTime time.Duration
	// bufs are the pool handles of the Profiles' recording buffers.
	bufs []*[]Sample
}

// Root returns the root process profile.
func (r *RunResult) Root() *Profile { return r.Profiles[0] }

// Recycle returns the run's pooled memory: each per-process profile's
// recording buffer (its Samples becomes nil; an empty buffer, which a
// profiler without metadata holds, or one over the pool's ceiling is left
// to the GC) and every process VM's arenas (see vm.Recycle). Callers merge
// the Profiles first (MergeProfiles copies the samples into a profile that
// is never pooled) and then call it once, done with the per-process
// profiles and Procs. Every other Profile field and scalar VM state (ticks,
// outputs) stay readable afterwards; a second call does nothing.
func (r *RunResult) Recycle() {
	for _, p := range r.Profiles {
		p.Samples = nil
	}
	for _, b := range r.bufs {
		if c := cap(*b); c > 0 && c <= maxPooledSamples {
			samplePool.Put(b)
		}
	}
	r.bufs = nil
	vm.RecycleProcesses(r.Procs)
}

// TotalTicks sums simulated time across processes.
func (r *RunResult) TotalTicks() int64 {
	var t int64
	for _, p := range r.Procs {
		t += p.VM.Ticks()
	}
	return t
}

// ProfileRun executes prog (and any spawned children) under the profiler,
// monitoring the given variable metadata, and returns per-process profiles.
// baseCfg supplies workload inputs, seed and tick budget; its alarm fields
// are overridden. An AlarmPhase in baseCfg is honored, letting repeated runs
// sample at different phases.
func ProfileRun(prog *compiler.Program, metadata []debuginfo.VarLoc, baseCfg vm.Config, opts Options) *RunResult {
	res, _ := ProfileRunContext(context.Background(), prog, metadata, baseCfg, opts)
	return res
}

// ProfileRunContext is ProfileRun with cooperative cancellation: the context
// is checked at every profiling alarm (cancellation granularity is one alarm
// interval) and the VM is interrupted once it is canceled. On cancellation
// the partial result is returned alongside ctx.Err(). A context that can
// never be canceled adds no per-alarm work, so ProfileRun stays byte-for-byte
// identical to its pre-context behavior.
func ProfileRunContext(ctx context.Context, prog *compiler.Program, metadata []debuginfo.VarLoc, baseCfg vm.Config, opts Options) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	// stop interrupts m once ctx is canceled; alarms call it first.
	stop := func(m *vm.VM) {
		select {
		case <-done:
			m.Interrupt(ctx.Err())
		default:
		}
	}
	start := time.Now()
	profilers := map[int]*Profiler{}
	interval := opts.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	procs := vm.RunProcesses(prog, func(pid int) vm.Config {
		p := New(prog, metadata, opts)
		profilers[pid] = p
		cfg := baseCfg
		if opts.OffCPU {
			cfg.WallAlarmInterval = interval
			cfg.OnWallAlarm = p.OnWallAlarm
			if done != nil {
				cfg.OnWallAlarm = func(m *vm.VM, blocked bool) { stop(m); p.OnWallAlarm(m, blocked) }
			}
		} else {
			cfg.AlarmInterval = interval
			cfg.OnAlarm = p.OnAlarm
			if done != nil {
				cfg.OnAlarm = func(m *vm.VM) { stop(m); p.OnAlarm(m) }
			}
		}
		return cfg
	})
	res := &RunResult{Procs: procs}
	for _, proc := range procs {
		p := profilers[proc.Pid]
		res.Profiles = append(res.Profiles, p.Finish(proc.Pid, proc.VM.Ticks()))
		res.bufs = append(res.bufs, p.buf)
	}
	res.WallTime = time.Since(start)
	return res, ctx.Err()
}

// Side is the normal or the buggy side of a one-shot diagnosis: its
// program, the metadata its run 0 monitors, its run-0 VM configuration and
// the sampler options of every run.
type Side struct {
	Prog     *compiler.Program
	Metadata []debuginfo.VarLoc
	Config   vm.Config
	Options  Options
}

// RunConfig returns run i's VM configuration of a side whose run 0 uses
// base: each run advances the seed by 1000003 and the first alarm by 7
// ticks, so runs draw different random streams and sample other instants.
func RunConfig(base vm.Config, run int) vm.Config {
	base.Seed += uint64(run * 1000003)
	base.AlarmPhase += int64(7 * run)
	return base
}

// ProfileRuns profiles runs 0..n-1 of both sides, 2n runs on
// parallel.Workers(workers) goroutines, and returns each side's merged
// profiles in run order for any pool size; run i executes
// RunConfig(side.Config, i). Only run 0 monitors the side's metadata: the
// analysis reads values from run 0 of each side and PC histograms from
// every run. Once ctx is canceled, runs in flight stop at their next alarm,
// no further run starts, and ctx.Err() is returned.
func ProfileRuns(ctx context.Context, normal, buggy Side, n, workers int) (normalProfiles, buggyProfiles []*Profile, err error) {
	profiles, err := parallel.MapErrCtx(ctx, parallel.Workers(workers), 2*n, func(i int) (*Profile, error) {
		side, run := normal, i
		if i >= n {
			side, run = buggy, i-n
		}
		if run > 0 {
			side.Metadata = nil
		}
		res, err := ProfileRunContext(ctx, side.Prog, side.Metadata, RunConfig(side.Config, run), side.Options)
		merged := MergeProfiles(res.Profiles)
		res.Recycle()
		return merged, err
	})
	if err != nil {
		return nil, nil, err
	}
	return profiles[:n:n], profiles[n:], nil
}

// Run executes prog without any profiler attached (the "w/o profiling"
// baseline of the paper's Figure 7) and reports wall time and processes.
func Run(prog *compiler.Program, baseCfg vm.Config) ([]vm.Process, time.Duration) {
	start := time.Now()
	procs := vm.RunProcesses(prog, func(int) vm.Config { return baseCfg })
	return procs, time.Since(start)
}

// MergeProfiles combines per-process profiles of one run into a single
// profile (vProf's fix of gprof's multi-process handling: per-pid gmon files
// merged in analysis). Histograms and samples are concatenated; samples keep
// their per-process time order, which is sufficient for per-variable series
// because a variable's samples are grouped before analysis. The merged
// sample array is allocated once, at its final length.
func MergeProfiles(profiles []*Profile) *Profile {
	if len(profiles) == 0 {
		return nil
	}
	out := &Profile{
		Pid:      0,
		File:     profiles[0].File,
		Interval: profiles[0].Interval,
		Hist:     make([]int64, len(profiles[0].Hist)),
	}
	n := 0
	for _, pr := range profiles {
		n += len(pr.Samples)
	}
	if n > 0 {
		out.Samples = make([]Sample, 0, n)
	}
	// Layouts may be identical across processes (same metadata); build a
	// merged layout and remap sample indices.
	layoutIdx := map[string]int32{}
	for _, pr := range profiles {
		out.TotalTicks += pr.TotalTicks
		out.NumAlarms += pr.NumAlarms
		out.PCTableBytes = max(out.PCTableBytes, pr.PCTableBytes)
		out.VarArrayBytes = max(out.VarArrayBytes, pr.VarArrayBytes)
		out.SampleBytes += pr.SampleBytes
		if out.InitDuration < pr.InitDuration {
			out.InitDuration = pr.InitDuration
		}
		for pc, n := range pr.Hist {
			out.Hist[pc] += n
		}
		remap := make([]int32, len(pr.Layout))
		for i, l := range pr.Layout {
			key := l.Func + "\x00" + l.Name
			if idx, ok := layoutIdx[key]; ok {
				remap[i] = idx
				continue
			}
			idx := int32(len(out.Layout))
			out.Layout = append(out.Layout, l)
			layoutIdx[key] = idx
			remap[i] = idx
		}
		off := len(out.Samples)
		out.Samples = append(out.Samples, pr.Samples...)
		for i := off; i < len(out.Samples); i++ {
			s := &out.Samples[i]
			s.Layout = remap[s.Layout]
			s.Link = -1 // links are per-process; invalidated by merging
		}
	}
	return out
}
