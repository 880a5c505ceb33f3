package sampler

import (
	"context"
	"time"

	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
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
// recording buffer (its Samples becomes nil; a buffer over the pool's
// ceiling is left to the GC) and every process VM's arenas (see
// vm.Recycle). Callers merge the Profiles first (MergeProfiles copies the
// samples into a profile that is never pooled) and then call it once, done
// with the per-process profiles and Procs. Every other Profile field and
// scalar VM state (ticks, outputs) stay readable afterwards; a second call
// does nothing.
func (r *RunResult) Recycle() {
	for _, p := range r.Profiles {
		p.Samples = nil
	}
	for _, b := range r.bufs {
		if cap(*b) <= maxPooledSamples {
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
				inner := cfg.OnWallAlarm
				cfg.OnWallAlarm = func(m *vm.VM, blocked bool) {
					select {
					case <-done:
						m.Interrupt(ctx.Err())
					default:
					}
					inner(m, blocked)
				}
			}
		} else {
			cfg.AlarmInterval = interval
			cfg.OnAlarm = p.OnAlarm
			if done != nil {
				inner := cfg.OnAlarm
				cfg.OnAlarm = func(m *vm.VM) {
					select {
					case <-done:
						m.Interrupt(ctx.Err())
					default:
					}
					inner(m)
				}
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
		out.PCTableBytes = max64(out.PCTableBytes, pr.PCTableBytes)
		out.VarArrayBytes = max64(out.VarArrayBytes, pr.VarArrayBytes)
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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
