// Package sampler implements vProf's profiler runtime (paper §3.3–§4): the
// PC-sampling cost histogram shared with gprof, plus passive value-sample
// recording driven by the same periodic alarm.
//
// Data structures follow the paper's Figure 3:
//
//   - PCToVarTable: a hash table mapping each PC to the chain of variables
//     accessible at that PC (hash collisions use separate chaining).
//   - VariableArray: variable-metadata nodes; overlapping variables at a PC
//     are connected through each node's link field. One refinement over the
//     paper's description: when one metadata range overlaps *different*
//     chains at different PCs (a global spans the whole text section), a
//     node per distinct predecessor is allocated so chains stay exact; the
//     paper's PC-containment check during sampling is still performed.
//   - SampleArray: recorded value samples, chained per variable through
//     sample_tail/link, each carrying the PC and the stack_depth at which it
//     was recorded.
//
// At every alarm the current PC is histogrammed and all variables accessible
// at it are recorded; then the call stack is virtually unwound a bounded
// number of frames (default 3) and variables accessible at each caller PC
// are recorded with their stack depth — the mechanism that gives callers of
// time-consuming callees their value samples.
package sampler

import (
	"sync"
	"sync/atomic"
	"time"

	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/vm"
)

// DefaultUnwindDepth is the paper's default bound on virtual stack
// unwinding.
const DefaultUnwindDepth = 3

// DefaultInterval is the default alarm interval in ticks. It is prime so
// that sampling does not phase-lock with loop periods.
const DefaultInterval = 97

// Options configures a Profiler.
type Options struct {
	// Interval is the alarm period in ticks (DefaultInterval if 0).
	Interval int64
	// UnwindDepth bounds virtual stack unwinding (DefaultUnwindDepth if
	// 0; use a negative value to disable unwinding entirely).
	UnwindDepth int
	// OffCPU switches the profiler to off-CPU mode (the paper's §7
	// future-work direction): alarms fire on the wall clock and only
	// instants where the program is blocked (inside block(n)) are
	// recorded, so function costs measure *blocked* time. The same
	// value-assisted calibration then applies to off-CPU profiles.
	OffCPU bool
}

// LayoutEntry maps a variable to its identity, the analogue of the paper's
// Layout Log connecting value samples back to schema variables.
type LayoutEntry struct {
	Func      string // declaring function, or debuginfo.GlobalScope
	Name      string
	IsPointer bool
}

// Sample is one SampleArray record. Fields are ordered widest first so the
// struct packs into 40 bytes; the codec writes them by name, not by layout.
type Sample struct {
	// Value and Ptr are the variable's value at the alarm.
	Value int64
	// Tick is the simulated time of the alarm.
	Tick int64
	// Layout identifies the sampled variable (index into Profile.Layout).
	Layout int32
	// VarNode is the VariableArray node through which the sample was
	// recorded.
	VarNode int32
	// PC at which the variable was accessible (the caller PC for
	// unwound samples).
	PC int32
	// StackDepth is the number of frames unwound before recording (0 =
	// sampled at the interrupted PC).
	StackDepth int32
	// Link chains to the previous sample of the same VarNode (-1 ends).
	Link int32
	Ptr  bool
}

// varNode is a VariableArray entry.
type varNode struct {
	meta       debuginfo.VarLoc
	layout     int32
	link       int32 // previous overlapping variable node at this PC chain
	sampleTail int32 // most recent sample for this node (-1 none)
}

// pcEntry is a PCToVarTable slot: the head of the variable chain for one PC.
// Hash collisions (different PCs, same bucket) chain through next.
type pcEntry struct {
	pc       int32
	varIndex int32
	next     int32
}

// samplePool holds SampleArray recording buffers between runs. A
// per-process Profile's Samples is a view of its buffer; RunResult.Recycle
// empties the profiles before it returns the buffers, and merged profiles
// are never pooled.
var samplePool = sync.Pool{New: func() any { return new([]Sample) }}

// sampleMark is the most samples any one process has recorded so far, up
// to maxPooledSamples. New gives every recording at least that capacity, so
// a draw from a pool a GC emptied, or one that returns a smaller program's
// buffer, allocates once instead of regrowing by append.
var sampleMark atomic.Int64

// maxPooledSamples bounds the mark and the buffers the pool keeps: 64 MiB
// of 40-byte samples, the limit obs puts on its body pool. A recording over
// it is neither marked nor pooled, so one huge run does not pin its size in
// a long-lived agent.
const maxPooledSamples = 64 << 20 / 40

// raiseMark lifts sampleMark to n samples unless n is over the ceiling.
func raiseMark(n int) {
	if n > maxPooledSamples {
		return
	}
	for m := sampleMark.Load(); int64(n) > m; m = sampleMark.Load() {
		if sampleMark.CompareAndSwap(m, int64(n)) {
			return
		}
	}
}

// Profiler records PC and value samples for one process execution.
type Profiler struct {
	prog *compiler.Program
	opts Options

	layout    []LayoutEntry
	layoutIdx map[string]int32

	vars    []varNode
	buckets []int32
	entries []pcEntry

	hist []int64
	// samples is the recording buffer, taken from samplePool in New;
	// buf is its pool handle, which Finish points at the whole buffer.
	samples   []Sample
	buf       *[]Sample
	numAlarms int64
	// unwound[d] counts the alarms that unwound d frames; Finish
	// publishes it with numAlarms and the samples recorded.
	unwound  []uint64
	initTime time.Duration
}

// New builds a Profiler for prog monitoring the given variable metadata
// (typically schema.Translate output). Initialization cost is measured and
// reported via InitDuration, mirroring the paper's Table 5; it excludes
// drawing the recording buffer, which holds at least the mark. Without
// metadata the profiler can record no value sample and draws no buffer.
func New(prog *compiler.Program, metadata []debuginfo.VarLoc, opts Options) *Profiler {
	var buf *[]Sample
	if len(metadata) > 0 {
		buf = samplePool.Get().(*[]Sample)
		if mark := int(sampleMark.Load()); cap(*buf) < mark {
			*buf = make([]Sample, 0, mark)
		}
	} else {
		buf = new([]Sample)
	}
	start := time.Now()
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.UnwindDepth == 0 {
		opts.UnwindDepth = DefaultUnwindDepth
	}
	// The PCToVarTable has half as many buckets as the text section has
	// instructions, per the paper, and at least 16.
	tableSize := max(len(prog.Instrs)/2, 16)
	p := &Profiler{
		prog:      prog,
		opts:      opts,
		layoutIdx: map[string]int32{},
		buckets:   make([]int32, tableSize),
		hist:      make([]int64, len(prog.Instrs)),
		unwound:   make([]uint64, max(opts.UnwindDepth, 0)+1),
		samples:   (*buf)[:0],
		buf:       buf,
	}
	for i := range p.buckets {
		p.buckets[i] = -1
	}
	for _, m := range metadata {
		p.addMetadata(m)
	}
	p.initTime = time.Since(start)
	return p
}

func (p *Profiler) layoutOf(m debuginfo.VarLoc) int32 {
	key := m.Func + "\x00" + m.Name
	if i, ok := p.layoutIdx[key]; ok {
		return i
	}
	i := int32(len(p.layout))
	p.layout = append(p.layout, LayoutEntry{Func: m.Func, Name: m.Name, IsPointer: m.IsPointer})
	p.layoutIdx[key] = i
	return i
}

func (p *Profiler) hash(pc int) int { return pc % len(p.buckets) }

// findPC returns the pcEntry index for pc, or -1.
func (p *Profiler) findPC(pc int) int32 {
	for i := p.buckets[p.hash(pc)]; i >= 0; i = p.entries[i].next {
		if p.entries[i].pc == int32(pc) {
			return i
		}
	}
	return -1
}

// addMetadata registers one variable-metadata entry, filling PCToVarTable
// for every PC in its range and linking overlap chains.
func (p *Profiler) addMetadata(m debuginfo.VarLoc) {
	layout := p.layoutOf(m)
	// nodeFor maps a predecessor head to the VariableArray node for this
	// metadata chained after that predecessor.
	nodeFor := map[int32]int32{}
	for pc := m.PCStart; pc < m.PCEnd && pc < len(p.prog.Instrs); pc++ {
		ei := p.findPC(pc)
		var prev int32 = -1
		if ei >= 0 {
			prev = p.entries[ei].varIndex
		}
		node, ok := nodeFor[prev]
		if !ok {
			node = int32(len(p.vars))
			p.vars = append(p.vars, varNode{meta: m, layout: layout, link: prev, sampleTail: -1})
			nodeFor[prev] = node
		}
		if ei >= 0 {
			p.entries[ei].varIndex = node
		} else {
			b := p.hash(pc)
			p.entries = append(p.entries, pcEntry{pc: int32(pc), varIndex: node, next: p.buckets[b]})
			p.buckets[b] = int32(len(p.entries) - 1)
		}
	}
}

// OnAlarm is the CPU-time profiling signal handler: record the PC sample,
// record value samples at the current PC, then virtually unwind.
func (p *Profiler) OnAlarm(m *vm.VM) {
	p.record(m, m.Ticks())
}

// OnWallAlarm is the off-CPU profiling handler: only blocked instants are
// recorded, with timestamps on the wall clock, so accumulated cost measures
// time spent off-CPU.
func (p *Profiler) OnWallAlarm(m *vm.VM, blocked bool) {
	if !blocked {
		return
	}
	p.record(m, m.WallTicks())
}

func (p *Profiler) record(m *vm.VM, tick int64) {
	p.numAlarms++
	pc := m.PC()
	if pc >= 0 && pc < len(p.hist) {
		p.hist[pc]++
	}
	p.sampleAt(m, pc, 0, 0, tick)
	p.unwound[p.unwind(m, tick)]++
}

// unwind virtually unwinds up to UnwindDepth frames below the alarm,
// recording value samples at each caller's call PC, and returns the number
// of frames it unwound.
func (p *Profiler) unwind(m *vm.VM, tick int64) int {
	for d := 1; d <= p.opts.UnwindDepth; d++ {
		below, ok := m.Frame(d - 1)
		if !ok || below.RetPC < 0 {
			return d - 1
		}
		if _, ok := m.Frame(d); !ok {
			return d - 1
		}
		// The caller PC is the call-instruction PC recorded in the
		// callee frame; registers are restored from the caller frame.
		p.sampleAt(m, below.RetPC, d, d, tick)
	}
	return max(p.opts.UnwindDepth, 0)
}

// sampleAt records value samples for all variables accessible at pc, reading
// registers from the frame at frameDepth.
func (p *Profiler) sampleAt(m *vm.VM, pc, frameDepth, stackDepth int, tick int64) {
	ei := p.findPC(pc)
	if ei < 0 {
		return
	}
	for ni := p.entries[ei].varIndex; ni >= 0; ni = p.vars[ni].link {
		node := &p.vars[ni]
		// The paper's containment check: linked entries may not all
		// cover this PC.
		if !node.meta.Contains(pc) {
			continue
		}
		var val vm.Value
		switch node.meta.Loc {
		case debuginfo.LocReg:
			fv, ok := m.Frame(frameDepth)
			if !ok {
				continue
			}
			val = fv.Slot(node.meta.Reg)
		case debuginfo.LocMem:
			gi := (node.meta.Addr - compiler.GlobalBase) / 8
			if gi < 0 || gi >= p.prog.NumGlobals() {
				continue
			}
			val = m.Global(gi)
		}
		idx := int32(len(p.samples))
		p.samples = append(p.samples, Sample{
			Value:      val.I,
			Tick:       tick,
			Layout:     node.layout,
			VarNode:    ni,
			PC:         int32(pc),
			StackDepth: int32(stackDepth),
			Link:       node.sampleTail,
			Ptr:        val.Ptr,
		})
		node.sampleTail = idx
	}
}

// Profile is the on-disk artifact of one profiled process: the gprof-style
// PC histogram, the value samples, and the layout log.
type Profile struct {
	Pid        int
	File       string
	Interval   int64
	TotalTicks int64
	NumAlarms  int64
	// Hist[pc] is the number of PC samples at pc.
	Hist    []int64
	Samples []Sample
	Layout  []LayoutEntry
	// Metrics for overhead reporting (Table 5).
	PCTableBytes  int64
	VarArrayBytes int64
	SampleBytes   int64
	InitDuration  time.Duration
}

// Finish packages the recorded data into a Profile for process pid that
// consumed totalTicks; it is called once, after the run, and raises the
// mark to the samples recorded. The Profile's Samples is the recording
// buffer itself, clipped so len == cap, and the buffer stays out of the
// pool: ProfileRunContext hands its handle to the RunResult, whose Recycle
// returns it.
func (p *Profiler) Finish(pid int, totalTicks int64) *Profile {
	const (
		pcEntrySize = 12 // pc + varIndex + next
		varNodeSize = 64 // metadata + link + tail (modeled)
		sampleSize  = 40 // fields of a SampleArray record
	)
	var samples []Sample
	if n := len(p.samples); n > 0 {
		samples = p.samples[:n:n]
	}
	raiseMark(len(samples))
	p.publish()
	*p.buf = p.samples[:0]
	p.samples = nil
	return &Profile{
		Pid:           pid,
		File:          p.prog.File,
		Interval:      p.opts.Interval,
		TotalTicks:    totalTicks,
		NumAlarms:     p.numAlarms,
		Hist:          p.hist,
		Samples:       samples,
		Layout:        p.layout,
		PCTableBytes:  int64(len(p.buckets)*4 + len(p.entries)*pcEntrySize),
		VarArrayBytes: int64(len(p.vars) * varNodeSize),
		SampleBytes:   int64(len(samples) * sampleSize),
		InitDuration:  p.initTime,
	}
}

// publish adds the run's alarms, value samples and unwind depths to the
// self-metrics, once per run rather than once per alarm.
func (p *Profiler) publish() {
	sm := samplerMetrics.Load()
	sm.alarms.Add(float64(p.numAlarms))
	sm.valueSamples.Add(float64(len(p.samples)))
	for d, n := range p.unwound {
		sm.unwindDepth.ObserveN(float64(d), n)
	}
}

// NumVarNodes exposes the VariableArray length (tests, Table 5).
func (p *Profiler) NumVarNodes() int { return len(p.vars) }

// VarSamples returns the time-ordered value series of one variable in the
// profile, identified by declaring function (or debuginfo.GlobalScope) and
// name. Samples appear in recording order, which is time order.
func (pr *Profile) VarSamples(fn, name string) []Sample {
	li := int32(-1)
	for i, l := range pr.Layout {
		if l.Func == fn && l.Name == name {
			li = int32(i)
			break
		}
	}
	if li < 0 {
		return nil
	}
	var out []Sample
	for _, s := range pr.Samples {
		if s.Layout == li {
			out = append(out, s)
		}
	}
	return out
}

// FuncPCCost returns, per function name, the PC-sample execution cost
// (sample count x interval), attributing each PC to the function containing
// it. Library functions are included; callers filter as needed.
func (pr *Profile) FuncPCCost(info *debuginfo.Info) map[string]int64 {
	out := map[string]int64{}
	for pc, n := range pr.Hist {
		if n == 0 {
			continue
		}
		if fn := info.FuncAt(pc); fn != nil {
			out[fn.Name] += n * pr.Interval
		}
	}
	return out
}

// FuncValueSampleUnits returns, per function name, the number of value-sample
// units recorded inside the function: one unit per (alarm, PC) pair with at
// least one value sample. This is the paper's variable-based execution cost
// basis — "value samples with distinct PCs" within one alarm count once, but
// a variable re-sampled at every alarm (e.g. at a call site while a costly
// callee runs, via virtual unwinding) accrues one unit per alarm, making the
// caller inherit its callee's cost. Multiply by the interval for the cost.
func (pr *Profile) FuncValueSampleUnits(info *debuginfo.Info) map[string]int64 {
	type unit struct {
		tick int64
		pc   int32
	}
	seen := map[unit]bool{}
	out := map[string]int64{}
	for _, s := range pr.Samples {
		u := unit{s.Tick, s.PC}
		if seen[u] {
			continue
		}
		seen[u] = true
		if fn := info.FuncAt(int(s.PC)); fn != nil {
			out[fn.Name]++
		}
	}
	return out
}
