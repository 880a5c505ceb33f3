// Package vm executes compiled programs (package compiler) under a
// deterministic tick-based cost model, standing in for the native CPU
// execution that the vProf paper profiles.
//
// Every instruction consumes one tick; the work(n) builtin consumes n more.
// A configurable alarm fires every AlarmInterval ticks, invoking a callback
// with the VM paused at its current PC — the analogue of glibc's profil()
// SIGPROF delivery that both gprof and vProf build on. The callback may
// inspect the full call stack and read frame slots ("registers") and globals
// ("memory"), which is exactly what the sampler package does.
//
// Determinism: given the same program, inputs, seed and alarm phase, a run
// is bit-for-bit reproducible.
package vm

import (
	"errors"
	"fmt"
	"sync"

	"vprof/internal/compiler"
)

// Value is a runtime value: a 64-bit integer, optionally tagged as a pointer
// (the result of alloc()).
type Value struct {
	I   int64
	Ptr bool
}

// ErrTicksExceeded is returned by Run when the configured tick budget is
// exhausted. The analogue of stopping a hung reproduction run with a signal:
// profiling data gathered so far remains valid.
var ErrTicksExceeded = errors.New("vm: tick budget exceeded")

// ErrInterrupted is the default error reported by a VM stopped via
// Interrupt (e.g. when a profiling run's context is canceled).
var ErrInterrupted = errors.New("vm: interrupted")

// RuntimeError is a trap raised by program execution (e.g. division by zero).
type RuntimeError struct {
	PC   int
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("vm: runtime error at pc=%d line=%d: %s", e.PC, e.Line, e.Msg)
}

// DefaultMaxTicks bounds a run when Config.MaxTicks is zero.
const DefaultMaxTicks = 200_000_000

// Config controls one VM execution.
type Config struct {
	// Inputs are the workload parameters returned by input(k).
	Inputs []int64
	// Seed seeds the deterministic PRNG behind rand(n). A zero seed is
	// replaced by 1.
	Seed uint64
	// MaxTicks bounds execution; DefaultMaxTicks when zero.
	MaxTicks int64
	// AlarmInterval fires OnAlarm every this many ticks; 0 disables.
	AlarmInterval int64
	// AlarmPhase delays the first alarm by this many ticks, modeling the
	// arbitrary phase of a periodic timer relative to program start.
	AlarmPhase int64
	// OnAlarm is invoked at each alarm with the VM paused.
	OnAlarm func(*VM)
	// CostScale, when non-nil, rescales the tick cost charged at each PC.
	// COZ-style causal profiling uses it to apply a virtual speedup to
	// one basic block.
	CostScale func(pc int, cost int64) int64
	// ScaleStack, when non-nil, applies an *inclusive* virtual speedup:
	// every tick charged (CPU or blocked) while a marked function has a
	// frame anywhere on the call stack is rescaled by Factor. Where
	// CostScale models "this code runs faster", ScaleStack models
	// "optimizing this function — including the work it delegates —
	// shrinks its whole dynamic extent", which is the experiment
	// internal/causal runs per candidate function.
	//
	// Unlike CostScale's truncating arithmetic, ScaleStack and ScaleSpan
	// use fractional-carry accounting: the scaled charge's fractional
	// part carries into the next charge, so long-run tick accrual
	// matches Factor exactly even for unit-cost instructions. (Naive
	// truncation zeroes every unit charge at any Factor < 1 — turning a
	// 10% virtual speedup into total removal and letting a scaled
	// infinite loop run forever without ever reaching its tick budget.)
	ScaleStack *StackScale
	// ScaleSpan, when non-nil, applies an *exclusive* virtual speedup to
	// one PC range with the same fractional-carry accounting: CPU ticks
	// charged at a PC in [Start, End) are rescaled by Factor; blocked
	// time is untouched. This is internal/causal's block-granularity
	// experiment.
	ScaleSpan *SpanScale
	// OnBranch, when non-nil, observes every conditional branch outcome
	// (statistical debugging's branch predicates).
	OnBranch func(pc int, taken bool)
	// OnReturn, when non-nil, observes every function return value
	// (statistical debugging's return predicates).
	OnReturn func(funcIndex int, value Value)
	// WallAlarmInterval fires OnWallAlarm every this many *wall* ticks
	// (CPU ticks plus off-CPU blocked time from the block(n) builtin);
	// 0 disables. This is the off-CPU profiling hook: unlike the
	// CPU-time alarm, it keeps firing while the program is blocked.
	WallAlarmInterval int64
	// OnWallAlarm is invoked at each wall alarm; blocked reports whether
	// the program was off-CPU (inside block(n)) at that instant.
	OnWallAlarm func(vm *VM, blocked bool)
	// MaxWallTicks bounds wall-clock time (0 = no bound beyond MaxTicks).
	MaxWallTicks int64
	// CountCalls enables per-edge call counting (gprof's mcount).
	CountCalls bool
}

// StackScale configures the inclusive virtual-speedup hook (Config.ScaleStack).
type StackScale struct {
	// Marked flags function indexes (parallel to the program's function
	// table) whose dynamic extent is virtually sped up.
	Marked []bool
	// Factor is the remaining fraction of each charged tick while marked
	// code is on the stack: 0.25 means a 75% virtual speedup.
	Factor float64
}

// SpanScale configures the exclusive virtual-speedup hook (Config.ScaleSpan).
type SpanScale struct {
	// [Start, End) is the half-open PC range sped up.
	Start, End int
	// Factor is the remaining fraction of each CPU tick charged inside
	// the range: 0.25 means a 75% virtual speedup.
	Factor float64
}

// ChildRequest records a spawn() call: a process to run after the parent,
// with a snapshot of the parent's globals (fork semantics).
type ChildRequest struct {
	FuncIndex int
	Args      []Value
	Globals   []Value
}

type frame struct {
	funcIndex int
	retPC     int // PC of the OpCall instruction in the caller
	slots     []Value
	// The frame's base offset in the register arena, the caller's resume
	// register-code index, and the caller register receiving the result.
	base int32
	rret int32
	rres int32
}

// vmArena bundles the two growable per-run allocations — the register
// engine's flat register arena and the call-stack frame array — so drivers
// that execute many runs back to back (causal experiments, profiling
// fan-outs, sub-millisecond workloads like b14 where per-run setup
// dominates) can reuse them via Recycle instead of re-allocating each run.
// Value holds no GC pointers and Recycle clears the frames' slice views,
// so a pooled arena retains nothing beyond raw integers, which New clears
// before reuse.
type vmArena struct {
	regs   []Value
	frames []frame
}

var arenaPool = sync.Pool{New: func() any { return new(vmArena) }}

// VM is a single simulated process executing one program.
type VM struct {
	prog    *compiler.Program
	cfg     Config
	globals []Value
	frames  []frame
	pc      int
	ticks   int64 // CPU ticks
	blocked int64 // off-CPU ticks accumulated by block(n)
	next    int64 // next CPU alarm tick (valid when interval > 0)
	nextW   int64 // next wall alarm tick (valid when wall interval > 0)
	rng     uint64
	nextPtr int64
	result  Value
	stopErr error // set by Interrupt; checked once per instruction
	// markedDepth counts frames of ScaleStack-marked functions currently
	// on the stack; charges are rescaled while it is positive.
	markedDepth int
	// carryStack/carrySpan accumulate the fractional remainders of
	// ScaleStack/ScaleSpan rescaling (always in [0,1)).
	carryStack float64
	carrySpan  float64
	// regs is the register engine's frame arena (all live frames' named
	// slots and scratch registers, contiguously).
	regs []Value
	// arena is the pooled backing storage behind regs/frames, surrendered
	// by Recycle.
	arena *vmArena

	// Children collects spawn() requests in order.
	Children []ChildRequest
	// Outputs collects out(v) values, for tests and examples.
	Outputs []int64
	// BranchTaken counts taken conditional branches per function index
	// (the signal perf-PT style control-flow profiling consumes).
	BranchTaken []int64
	// CallEdges counts calls per (caller, callee) function-index pair —
	// the data gprof's mcount instrumentation collects for its call
	// graph. Populated only when Config.CountCalls is set.
	CallEdges map[[2]int32]int64
	// InstrCount is the number of instructions executed.
	InstrCount int64
}

// New creates a VM for prog with the given configuration, ready to Run from
// the program entry point.
func New(prog *compiler.Program, cfg Config) *VM {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxTicks <= 0 {
		cfg.MaxTicks = DefaultMaxTicks
	}
	// Reuse a pooled arena when one is available. No clearing is needed
	// for execution to match a fresh allocation bit for bit: every frame
	// field is assigned on push; named slots are zeroed on every frame
	// entry (runRegister's root loop, RCall's callee loop) and are all
	// FrameView.Slot exposes; scratch registers are operand-stack
	// canonical registers, written before read by stack discipline. The
	// differential fuzzer recycles between engine runs to keep this
	// stale-arena equivalence continuously checked.
	a := arenaPool.Get().(*vmArena)
	vm := &VM{
		prog:        prog,
		cfg:         cfg,
		globals:     make([]Value, prog.NumGlobals()),
		rng:         cfg.Seed,
		regs:        a.regs,
		frames:      a.frames,
		arena:       a,
		BranchTaken: make([]int64, len(prog.Funcs)),
	}
	vm.next = cfg.AlarmPhase
	if vm.next <= 0 {
		vm.next = cfg.AlarmInterval
	}
	vm.nextW = cfg.AlarmPhase
	if vm.nextW <= 0 {
		vm.nextW = cfg.WallAlarmInterval
	}
	return vm
}

// Prog returns the program being executed.
func (vm *VM) Prog() *compiler.Program { return vm.prog }

// Interrupt stops the run at the next instruction boundary; the loop returns
// err (ErrInterrupted when nil). It is intended to be called from alarm
// callbacks — the VM is single-threaded, so the flag needs no atomics.
func (vm *VM) Interrupt(err error) {
	if err == nil {
		err = ErrInterrupted
	}
	vm.stopErr = err
}

// Ticks returns the simulated CPU time consumed so far.
func (vm *VM) Ticks() int64 { return vm.ticks }

// BlockedTicks returns the off-CPU time accumulated by block(n).
func (vm *VM) BlockedTicks() int64 { return vm.blocked }

// WallTicks returns elapsed wall-clock time: CPU plus blocked time.
func (vm *VM) WallTicks() int64 { return vm.ticks + vm.blocked }

// PC returns the current program counter.
func (vm *VM) PC() int { return vm.pc }

// Depth returns the current call-stack depth.
func (vm *VM) Depth() int { return len(vm.frames) }

// Result returns the value of the final return (used by RunFunc callers).
func (vm *VM) Result() Value { return vm.result }

// Recycle returns the VM's register and frame arenas to a process-wide
// pool for reuse by a future New. Call it once the VM is done executing
// and its stack will no longer be inspected; scalar post-run state
// (Ticks, Result, Outputs, BranchTaken, Children) remains readable.
// Recycling is optional — an un-recycled VM is simply garbage collected —
// and a second Recycle is a no-op.
func (vm *VM) Recycle() {
	a := vm.arena
	if a == nil {
		return
	}
	vm.arena = nil
	// Drop the frames' slot views, which may alias register arrays that
	// growRegs has since replaced, so the pooled arena pins no dead memory.
	frames := vm.frames[:cap(vm.frames)]
	for i := range frames {
		frames[i].slots = nil
	}
	a.regs, a.frames = vm.regs, frames[:0]
	vm.regs, vm.frames = nil, nil
	arenaPool.Put(a)
}

// Global reads global variable i.
func (vm *VM) Global(i int) Value { return vm.globals[i] }

// Globals returns a copy of the current global memory.
func (vm *VM) Globals() []Value {
	out := make([]Value, len(vm.globals))
	copy(out, vm.globals)
	return out
}

// FrameView is a read-only view of one stack frame, as seen by the profiler
// when virtually unwinding the stack.
type FrameView struct {
	// FuncIndex identifies the frame's function.
	FuncIndex int
	// RetPC is the PC of the call instruction in the *caller* (the
	// "caller PC" at which unwinding resumes). It is -1 for the root
	// frame.
	RetPC int
	vm    *VM
	idx   int
}

// Slot reads the frame's i-th slot ("register"). Out-of-range reads return
// the zero Value, mirroring a profiler reading a garbage register.
func (f FrameView) Slot(i int) Value {
	s := f.vm.frames[f.idx].slots
	if i < 0 || i >= len(s) {
		return Value{}
	}
	return s[i]
}

// Frame returns a view of the frame depth levels below the top (0 = current
// frame). ok is false when depth exceeds the stack.
func (vm *VM) Frame(depth int) (FrameView, bool) {
	idx := len(vm.frames) - 1 - depth
	if idx < 0 {
		return FrameView{}, false
	}
	fr := vm.frames[idx]
	return FrameView{FuncIndex: fr.funcIndex, RetPC: fr.retPC, vm: vm, idx: idx}, true
}

// Run executes the program from its entry point (__init, which runs global
// initializers and calls main). It returns nil on normal halt,
// ErrTicksExceeded if the budget ran out, or a *RuntimeError on a trap.
func (vm *VM) Run() error {
	return vm.runRegister(len(vm.prog.Funcs)-1, nil) // __init is emitted last
}

// RunFunc executes a single function as a fresh process (used for spawn
// children): globals are initialized from the given snapshot, the function
// is invoked with args, and execution ends when it returns.
func (vm *VM) RunFunc(funcIndex int, args []Value, globals []Value) error {
	fn := vm.prog.Funcs[funcIndex]
	if len(args) != fn.NumParams {
		return fmt.Errorf("vm: RunFunc %s: %d args, want %d", fn.Name, len(args), fn.NumParams)
	}
	copy(vm.globals, globals)
	return vm.runRegister(funcIndex, args)
}

// rescale scales a non-negative charge by factor with fractional-carry
// accounting: the remainder below one tick carries into the next charge via
// *carry (kept in [0,1)), so scaled tick accrual tracks factor exactly
// instead of truncating every sub-tick charge to zero.
func rescale(n int64, factor float64, carry *float64) int64 {
	want := float64(n)*factor + *carry
	out := int64(want)
	if out < 0 {
		out = 0
	}
	*carry = want - float64(out)
	return out
}

// marked reports whether function index idx is in the ScaleStack mark set.
func (vm *VM) marked(idx int) bool {
	ss := vm.cfg.ScaleStack
	return ss != nil && idx >= 0 && idx < len(ss.Marked) && ss.Marked[idx]
}

// charge consumes n ticks, firing alarms at every interval crossing with the
// VM paused at its current PC. A configured CostScale (virtual speedup)
// rescales the charge first.
func (vm *VM) charge(n int64) {
	if vm.cfg.CostScale != nil {
		n = vm.cfg.CostScale(vm.pc, n)
		if n < 0 {
			n = 0
		}
	}
	if ss := vm.cfg.ScaleSpan; ss != nil && vm.pc >= ss.Start && vm.pc < ss.End {
		n = rescale(n, ss.Factor, &vm.carrySpan)
	}
	if vm.markedDepth > 0 {
		n = rescale(n, vm.cfg.ScaleStack.Factor, &vm.carryStack)
	}
	cpuAlarms := vm.cfg.AlarmInterval > 0 && vm.cfg.OnAlarm != nil
	wallAlarms := vm.cfg.WallAlarmInterval > 0 && vm.cfg.OnWallAlarm != nil
	if !cpuAlarms && !wallAlarms {
		vm.ticks += n
		return
	}
	for n > 0 {
		step := n
		if cpuAlarms {
			if d := vm.next - vm.ticks; d < step {
				step = d
			}
		}
		if wallAlarms {
			if d := vm.nextW - vm.WallTicks(); d < step {
				step = d
			}
		}
		vm.ticks += step
		n -= step
		if cpuAlarms && vm.ticks == vm.next {
			vm.cfg.OnAlarm(vm)
			vm.next += vm.cfg.AlarmInterval
		}
		if wallAlarms && vm.WallTicks() == vm.nextW {
			vm.cfg.OnWallAlarm(vm, false)
			vm.nextW += vm.cfg.WallAlarmInterval
		}
	}
}

// chargeBlocked consumes n wall ticks with the program off-CPU (inside
// block(n)): the CPU-time alarm does not advance — a SIGPROF CPU profiler
// never fires while the process sleeps — but wall alarms do.
func (vm *VM) chargeBlocked(n int64) {
	// An inclusive virtual speedup shrinks blocked time too: optimizing a
	// function's extent includes the waiting it causes.
	if vm.markedDepth > 0 {
		n = rescale(n, vm.cfg.ScaleStack.Factor, &vm.carryStack)
	}
	if vm.cfg.WallAlarmInterval <= 0 || vm.cfg.OnWallAlarm == nil {
		vm.blocked += n
		return
	}
	for n > 0 {
		step := vm.nextW - vm.WallTicks()
		if step > n {
			vm.blocked += n
			return
		}
		vm.blocked += step
		n -= step
		vm.cfg.OnWallAlarm(vm, true)
		vm.nextW += vm.cfg.WallAlarmInterval
	}
}

func boolVal(b bool) Value {
	if b {
		return Value{I: 1}
	}
	return Value{I: 0}
}

// xorshift advances the deterministic PRNG (xorshift64*).
func (vm *VM) xorshift() uint64 {
	x := vm.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	vm.rng = x
	return x * 0x2545F4914F6CDD1D
}
