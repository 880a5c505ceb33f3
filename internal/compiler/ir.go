// Package compiler lowers the source language (package lang) to a compact
// stack-machine IR executed by package vm, and emits the DWARF-like debug
// information (package debuginfo) that vProf's binary static analysis
// consumes.
//
// The compilation model mirrors what matters to a PC-sampling profiler:
//
//   - A flat text section: PC is an index into Program.Instrs, and every
//     function occupies a contiguous [Entry, End) PC range.
//   - A line table: every instruction carries its source line.
//   - Virtual registers: each function's parameters and locals occupy frame
//     slots. Slots 0..3 model callee-saved registers (locatable across
//     calls); slots 4..7 model caller-saved registers (location entries have
//     gaps at call instructions, reproducing the paper's DWARF-gap
//     phenomenon); slots >= 8 model stack spills with no DWARF location at
//     all (the paper's "incomplete debugging information" case).
package compiler

import (
	"fmt"

	"vprof/internal/debuginfo"
	"vprof/internal/lang"
)

// Register-allocation model constants.
const (
	// NumCalleeSaved is the number of callee-saved virtual registers per
	// frame; variables in these slots are locatable across calls.
	NumCalleeSaved = 4
	// NumRegSlots is the total number of virtual registers per frame;
	// variables in slots [NumCalleeSaved, NumRegSlots) are caller-saved
	// and unlocatable at call-instruction PCs. Variables beyond
	// NumRegSlots live on the stack and have no debug location entries.
	NumRegSlots = 8
	// GlobalBase is the modeled memory address of global index 0;
	// global i lives at GlobalBase + 8*i.
	GlobalBase = 0x1000
)

// Op is an IR opcode.
type Op uint8

// Opcodes.
const (
	OpConst  Op = iota // push Consts[A]
	OpLoadG            // push globals[A]
	OpStoreG           // globals[A] = pop
	OpLoadL            // push slots[A]
	OpStoreL           // slots[A] = pop
	OpBin              // pop y, x; push x <binop A> y
	OpUn               // pop x; push <unop A> x
	OpJump             // pc = A
	OpJZ               // pop; if zero pc = A
	OpJNZ              // pop; if nonzero pc = A
	OpCall             // call Funcs[A] with B args popped from the stack
	OpCallB            // call builtin A with B args popped from the stack
	OpRet              // pop return value, pop frame, push value in caller
	OpPop              // pop and discard
	OpHalt             // stop the process
)

var opNames = [...]string{
	"const", "loadg", "storeg", "loadl", "storel", "bin", "un",
	"jump", "jz", "jnz", "call", "callb", "ret", "pop", "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Builtin identifies an intrinsic function provided by the VM.
type Builtin int

// Builtins callable from source programs.
const (
	BWork  Builtin = iota // work(n): consume n ticks of CPU, return n
	BAlloc                // alloc(): return a fresh pointer value
	BInput                // input(k): k-th workload input parameter
	BRand                 // rand(n): deterministic uniform int in [0, n)
	BNow                  // now(): current tick count
	BSpawn                // spawn("fn", args...): fork a child process
	BOut                  // out(v): append v to the VM output log, return v
	BAbs                  // abs(n)
	BMin                  // min(a, b)
	BMax                  // max(a, b)
	BBlock                // block(n): wait off-CPU for n wall-clock ticks

	NumBuiltins = int(BBlock) + 1
)

var builtinNames = map[string]Builtin{
	"work":  BWork,
	"alloc": BAlloc,
	"input": BInput,
	"rand":  BRand,
	"now":   BNow,
	"spawn": BSpawn,
	"out":   BOut,
	"abs":   BAbs,
	"min":   BMin,
	"max":   BMax,
	"block": BBlock,
}

var builtinArity = map[Builtin]int{
	BWork: 1, BAlloc: 0, BInput: 1, BRand: 1, BNow: 0,
	BSpawn: -1, // variadic: function index + args
	BOut:   1, BAbs: 1, BMin: 2, BMax: 2, BBlock: 1,
}

// BuiltinName returns the source-level name of b.
func BuiltinName(b Builtin) string {
	for n, id := range builtinNames {
		if id == b {
			return n
		}
	}
	return fmt.Sprintf("builtin(%d)", int(b))
}

// IsBuiltinName reports whether name refers to a VM builtin.
func IsBuiltinName(name string) bool {
	_, ok := builtinNames[name]
	return ok
}

// Instr is a single IR instruction. Every instruction costs one tick of
// simulated CPU (builtins may add more).
type Instr struct {
	Op   Op
	A, B int32
	Line int32
}

func (i Instr) String() string {
	switch i.Op {
	case OpBin:
		return fmt.Sprintf("bin %s", lang.BinaryOp(i.A))
	case OpUn:
		return fmt.Sprintf("un %s", lang.UnaryOp(i.A))
	case OpCall, OpCallB, OpConst, OpLoadG, OpStoreG, OpLoadL, OpStoreL, OpJump, OpJZ, OpJNZ:
		return fmt.Sprintf("%s %d %d", i.Op, i.A, i.B)
	default:
		return i.Op.String()
	}
}

// FuncInfo describes a compiled function.
type FuncInfo struct {
	Name      string
	Index     int
	NumParams int
	NumSlots  int
	SlotNames []string // slot -> source name ("" for temporaries; none used)
	SlotLines []int    // slot -> declaration line (parallel to SlotNames)
	// [Entry, End) PC range in the text section.
	Entry, End int
	Library    bool
	Synthetic  bool // true for the generated __init entry shim
	DeclLine   int
}

// Contains reports whether pc lies in the function's range.
func (f *FuncInfo) Contains(pc int) bool { return pc >= f.Entry && pc < f.End }

// Program is a compiled program: the text section plus symbol and debug
// metadata.
type Program struct {
	File        string
	Instrs      []Instr
	Consts      []int64
	Funcs       []*FuncInfo
	GlobalNames []string
	// EntryPC is where execution starts (the __init shim, which runs
	// global initializers then calls main).
	EntryPC int
	// MainIndex is the function index of main.
	MainIndex int
	Debug     *debuginfo.Info
	// CallGraph maps each function name to the distinct user functions it
	// calls, in first-call order.
	CallGraph map[string][]string
	// PointerVars maps "func\x00name" (or "#global\x00name") to true for
	// variables inferred to hold non-basic-type pointers.
	PointerVars map[string]bool
	// Reg is the register-IR lowering of Instrs (reg.go), the code the vm
	// package executes.
	Reg *RegProgram

	funcIndex   map[string]int
	globalIndex map[string]int
}

// FuncNamed returns the function with the given name, or nil.
func (p *Program) FuncNamed(name string) *FuncInfo {
	if i, ok := p.funcIndex[name]; ok {
		return p.Funcs[i]
	}
	return nil
}

// FuncAt returns the function containing pc, or nil.
func (p *Program) FuncAt(pc int) *FuncInfo {
	for _, f := range p.Funcs {
		if f.Contains(pc) {
			return f
		}
	}
	return nil
}

// GlobalIndex returns the index of the named global and whether it exists.
func (p *Program) GlobalIndex(name string) (int, bool) {
	i, ok := p.globalIndex[name]
	return i, ok
}

// NumGlobals returns the number of global variables.
func (p *Program) NumGlobals() int { return len(p.GlobalNames) }

// IsPointerVar reports whether the variable was inferred to hold a pointer.
// fn is the declaring function name or debuginfo.GlobalScope.
func (p *Program) IsPointerVar(fn, name string) bool {
	return p.PointerVars[fn+"\x00"+name]
}
