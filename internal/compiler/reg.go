package compiler

// Register-based IR: a second, faster encoding of a compiled Program,
// produced by Compile (Program.Reg) and executed by the vm package's
// register engine. The stack-machine IR (Instrs) stays the source of truth
// for debug info, static analysis, and the tree-walking reference
// interpreter the vm tests hold the register engine to; this file
// lowers it to register operations with superinstruction fusion while
// preserving the tick-for-tick observable semantics the tree walker
// defines.
//
// The determinism contract both engines satisfy (see DESIGN.md §11):
//
//   - Every stack instruction costs exactly one tick (OpCall two), charged
//     in program order, with budget prechecks at each instruction start.
//   - Alarm callbacks observe the VM paused at the *stack* PC whose tick
//     crossed the alarm boundary, with named frame slots and globals
//     exactly as the tree walker would show them at that instant.
//
// To honor that contract each RegOp carries PCs, its constituent tick
// schedule: one entry per stack-IR tick it accounts for, in program order.
// An entry e >= 0 is an instruction-start tick at stack pc e (budget
// precheck + InstrCount increment before the charge); an entry e < 0 is a
// continuation tick at stack pc ^e (OpCall's second tick, charged with no
// precheck). The engine batches the whole schedule into one addition when
// no scaling hook is active and no alarm or budget boundary falls inside
// it, and replays it tick by tick otherwise.
//
// Register file layout (per frame, offsets from the frame base):
//
//   [0, NumSlots)            named slots, identical to tree-walker frames;
//                            this range is what FrameView.Slot exposes.
//   NumSlots + d             the canonical register for operand-stack
//                            depth d. At block boundaries every live stack
//                            value is materialized into its canonical
//                            register, making merge points trivially
//                            consistent.
//
// Within a block the compiler runs an abstract interpretation of the
// operand stack: each entry is either canonical or an alias of a slot, a
// global, or a constant. Aliasing gives copy propagation for free — loads
// and constants usually emit no code, only deferring their tick into the
// next emitted op's schedule. Aliases are invalidated (materialized) when
// their source may change: slot aliases before a store to that slot,
// global aliases before a store to that global and before any call.
//
// Fusion safety rules:
//
//   - At most one observable effect (slot/global write, output, branch,
//     builtin side effect) per RegOp, applied after all its ticks are
//     charged — mirroring the tree walker, where an instruction's effect
//     follows its charge.
//   - Trapping ops (div/mod) terminate a fusion group: nothing may charge
//     after a tick whose instruction can trap, so a following store is
//     emitted as a separate move.

import (
	"fmt"

	"vprof/internal/lang"
)

// RegCode is a register-IR opcode.
type RegCode uint8

// Register opcodes. R[i] denotes the frame-relative register file.
const (
	RNop    RegCode = iota
	RMove           // R[A] = R[B]
	RConst          // R[A] = Imm
	RLoadG          // R[A] = globals[B]
	RStoreG         // globals[A] = R[B] (B < 0: Imm)
	RBin            // R[A] = R[B] <binop D> R[C]
	RBinI           // R[A] = R[B] <binop D> Imm
	RUn             // R[A] = <unop D> R[B]
	RJump           // rpc = A
	RBrZ            // if R[B] is zero: rpc = A (B < 0: test Imm)
	RBrNZ           // if R[B] is nonzero: rpc = A (B < 0: test Imm)
	RBrCmp          // if (R[B] <cmp D&0xffff> R[C]) != (D>>16 != 0): rpc = A
	RBrCmpI         // same with Imm as the right operand
	RCall           // call Funcs[A] with Args; result in R[D]
	RRet            // return R[A] (A < 0: Imm)
	RHalt           // stop the process
	RWork           // R[A] = work(src B/Imm)
	RBlockB         // R[A] = block(src B/Imm)
	RRand           // R[A] = rand(src B/Imm)
	RInput          // R[A] = input(src B/Imm)
	RNow            // R[A] = now()
	RAlloc          // R[A] = alloc()
	ROut            // R[A] = out(src B/Imm)
	RAbs            // R[A] = abs(src B/Imm)
	RMin            // R[A] = min(src B/Imm, src C/Imm)
	RMax            // R[A] = max(src B/Imm, src C/Imm)
	RSpawn          // R[A] = spawn(Args...)
)

var regNames = [...]string{
	"nop", "move", "const", "loadg", "storeg", "bin", "bini", "un",
	"jump", "brz", "brnz", "brcmp", "brcmpi", "call", "ret", "halt",
	"work", "block", "rand", "input", "now", "alloc", "out", "abs",
	"min", "max", "spawn",
}

func (c RegCode) String() string {
	if int(c) < len(regNames) {
		return regNames[c]
	}
	return fmt.Sprintf("rop(%d)", int(c))
}

// RegOp is one register instruction plus its constituent tick schedule.
type RegOp struct {
	Code       RegCode
	A, B, C, D int32
	Imm        int64
	// XPC is the stack PC reported for this op's observable event: the
	// trap PC for div/mod, the branch PC for OnBranch, the call PC for
	// frame RetPC, the callb PC the VM is paused at while work/block
	// charge. -1 when the op has no such event.
	XPC int32
	// Cost is the total tick cost (== len(PCs)); N is the InstrCount
	// delta (the number of instruction-start entries in PCs).
	Cost, N int32
	// PCs is the tick schedule; see the package comment.
	PCs []int32
	// Args lists call/spawn argument sources: an entry a >= 0 is caller
	// register a, a < 0 is the constant RegProgram.Consts[^a].
	Args []int32
}

// RegFunc is the register code for one function.
type RegFunc struct {
	// Code holds the function's register ops; execution enters at 0.
	Code []RegOp
	// NumSlots mirrors FuncInfo.NumSlots (the FrameView-visible range).
	NumSlots int32
	// FrameSize is the per-frame register count: NumSlots plus the
	// maximum operand-stack depth. A callee's frame base is its caller's
	// base plus the caller's FrameSize.
	FrameSize int32
}

// RegProgram is the register-IR lowering of a Program.
type RegProgram struct {
	Prog *Program
	// Funcs is parallel to Prog.Funcs.
	Funcs []RegFunc
	// Consts is the immediate pool referenced by negative Args entries.
	Consts []int64
}

// compileRegister lowers a compiled program to register IR (Program.Reg).
// It fails only on internal inconsistencies (e.g. unbalanced stack
// depths), which would indicate a compiler bug; Compile reports such a
// failure as its own error.
func compileRegister(p *Program) (*RegProgram, error) {
	n := len(p.Instrs)
	rc := &regCompiler{
		p:       p,
		constIx: map[int64]int32{},
		leaders: make([]bool, n),
		reach:   make([]bool, n),
		depthAt: make([]int, n),
		blockIx: make([]int, n),
	}
	calls := 0
	for i := range p.Instrs {
		rc.depthAt[i], rc.blockIx[i] = -1, -1
		if p.Instrs[i].Op == OpCall {
			calls++
		}
	}
	// Every reachable stack pc is charged exactly once, plus one
	// continuation tick per call: one buffer holds every tick schedule.
	rc.pcBuf = make([]int32, 0, n+calls)
	rp := &RegProgram{Prog: p, Funcs: make([]RegFunc, len(p.Funcs))}
	for i, f := range p.Funcs {
		rf, err := rc.compileFunc(f)
		if err != nil {
			return nil, fmt.Errorf("regcompile %s: %w", f.Name, err)
		}
		rp.Funcs[i] = rf
	}
	rp.Consts = rc.consts
	return rp, nil
}

// regCompiler holds program-level lowering state: the immediate pool, the
// per-pc tables, indexed by absolute stack pc (functions occupy disjoint
// pc ranges, so one set serves them all), and the backing store of the
// ops' tick schedules.
type regCompiler struct {
	p       *Program
	consts  []int64
	constIx map[int64]int32

	leaders []bool // pc starts a basic block
	reach   []bool // block starting at pc is reachable
	depthAt []int  // operand-stack depth on entry to pc; -1 = unknown
	blockIx []int  // code index of the lowered block starting at pc; -1 = none
	pcBuf   []int32
}

func (rc *regCompiler) constRef(v int64) int32 {
	if i, ok := rc.constIx[v]; ok {
		return ^i
	}
	i := int32(len(rc.consts))
	rc.consts = append(rc.consts, v)
	rc.constIx[v] = i
	return ^i
}

// absKind classifies an abstract operand-stack entry.
type absKind uint8

const (
	aCanon absKind = iota // value is in the canonical register for its depth
	aSlot                 // value equals slots[idx]
	aGlob                 // value equals globals[idx]
	aConst                // value is the constant c
)

type absEntry struct {
	kind absKind
	idx  int32
	c    int64
}

// regFn compiles one function.
type regFn struct {
	*regCompiler
	fn *FuncInfo

	code   []RegOp
	fixups []int

	stack   []absEntry
	pending []int32
	maxObs  int
}

func (rc *regCompiler) compileFunc(f *FuncInfo) (RegFunc, error) {
	// Fusion and copy propagation leave the register code well under half
	// as long as the stack code it lowers, so this capacity rarely grows.
	fc := &regFn{regCompiler: rc, fn: f, code: make([]RegOp, 0, (f.End-f.Entry)/2+1)}
	fc.scanLeaders()
	if err := fc.scanDepths(); err != nil {
		return RegFunc{}, err
	}
	for start := f.Entry; start < f.End; start++ {
		if !rc.reach[start] {
			continue
		}
		rc.blockIx[start] = len(fc.code)
		if err := fc.emitBlock(start); err != nil {
			return RegFunc{}, err
		}
	}
	for _, ix := range fc.fixups {
		// scanDepths has checked that every reachable jump stays in the
		// function.
		target := int(fc.code[ix].A)
		bi := rc.blockIx[target]
		if bi < 0 {
			return RegFunc{}, fmt.Errorf("jump to unreachable pc %d", target)
		}
		fc.code[ix].A = int32(bi)
	}
	return RegFunc{
		Code:      fc.code,
		NumSlots:  int32(f.NumSlots),
		FrameSize: int32(f.NumSlots + fc.maxObs),
	}, nil
}

// inFunc reports whether pc lies in the function being lowered.
func (fc *regFn) inFunc(pc int) bool { return pc >= fc.fn.Entry && pc < fc.fn.End }

func (fc *regFn) scanLeaders() {
	f := fc.fn
	fc.leaders[f.Entry] = true
	for pc := f.Entry; pc < f.End; pc++ {
		switch ins := fc.p.Instrs[pc]; ins.Op {
		case OpJump, OpJZ, OpJNZ:
			// A target outside the function is reported by scanDepths.
			if fc.inFunc(int(ins.A)) {
				fc.leaders[int(ins.A)] = true
			}
			if pc+1 < f.End {
				fc.leaders[pc+1] = true
			}
		case OpRet, OpHalt:
			if pc+1 < f.End {
				fc.leaders[pc+1] = true
			}
		}
	}
}

// scanDepths propagates operand-stack entry depths to every reachable
// block. Single-pass stack codegen guarantees consistency; a mismatch is
// an internal error.
func (fc *regFn) scanDepths() error {
	f := fc.fn
	fc.depthAt[f.Entry] = 0
	work := []int{f.Entry}
	flow := func(target, d int) error {
		if !fc.inFunc(target) {
			return fmt.Errorf("jump from %s to pc %d outside it", f.Name, target)
		}
		if od := fc.depthAt[target]; od >= 0 {
			if od != d {
				return fmt.Errorf("inconsistent stack depth at pc %d: %d vs %d", target, od, d)
			}
		} else {
			fc.depthAt[target] = d
		}
		work = append(work, target)
		return nil
	}
	for len(work) > 0 {
		start := work[len(work)-1]
		work = work[:len(work)-1]
		if fc.reach[start] {
			continue
		}
		fc.reach[start] = true
		d := fc.depthAt[start]
		pc := start
	block:
		for pc < f.End {
			if pc != start && fc.leaders[pc] {
				if err := flow(pc, d); err != nil {
					return err
				}
				break
			}
			ins := fc.p.Instrs[pc]
			switch ins.Op {
			case OpConst, OpLoadG, OpLoadL:
				d++
			case OpStoreG, OpStoreL, OpPop, OpBin:
				d--
			case OpUn:
			case OpCall, OpCallB:
				d += 1 - int(ins.B)
			case OpJump:
				if err := flow(int(ins.A), d); err != nil {
					return err
				}
				break block
			case OpJZ, OpJNZ:
				d--
				if err := flow(int(ins.A), d); err != nil {
					return err
				}
				if err := flow(pc+1, d); err != nil {
					return err
				}
				break block
			case OpRet, OpHalt:
				break block
			default:
				return fmt.Errorf("unknown opcode %v at pc %d", ins.Op, pc)
			}
			if d < 0 {
				return fmt.Errorf("stack underflow at pc %d", pc)
			}
			pc++
		}
	}
	return nil
}

func (fc *regFn) canonReg(pos int) int32 { return int32(fc.fn.NumSlots + pos) }

func (fc *regFn) push(e absEntry) {
	fc.stack = append(fc.stack, e)
	if len(fc.stack) > fc.maxObs {
		fc.maxObs = len(fc.stack)
	}
}

func (fc *regFn) pop() absEntry {
	e := fc.stack[len(fc.stack)-1]
	fc.stack = fc.stack[:len(fc.stack)-1]
	return e
}

func (fc *regFn) pend(pc int) { fc.pending = append(fc.pending, int32(pc)) }

// out emits op with a tick schedule of the deferred pending ticks followed
// by pcs.
func (fc *regFn) out(op RegOp, pcs ...int32) {
	if n := len(fc.pending) + len(pcs); n > 0 {
		start := len(fc.pcBuf)
		fc.pcBuf = append(fc.pcBuf, fc.pending...)
		fc.pcBuf = append(fc.pcBuf, pcs...)
		all := fc.pcBuf[start:len(fc.pcBuf):len(fc.pcBuf)]
		op.PCs = all
		op.Cost = int32(n)
		for _, e := range all {
			if e >= 0 {
				op.N++
			}
		}
	}
	fc.pending = fc.pending[:0]
	fc.code = append(fc.code, op)
}

// branchOut emits a control-transfer op whose A field holds a stack-PC
// target to be fixed up once all blocks are placed.
func (fc *regFn) branchOut(op RegOp, targetPC int, pcs ...int32) {
	op.A = int32(targetPC)
	fc.out(op, pcs...)
	fc.fixups = append(fc.fixups, len(fc.code)-1)
}

// matAt materializes stack entry i into its canonical register.
func (fc *regFn) matAt(i int) {
	e := fc.stack[i]
	if e.kind == aCanon {
		return
	}
	dst := fc.canonReg(i)
	switch e.kind {
	case aSlot:
		fc.out(RegOp{Code: RMove, A: dst, B: e.idx, XPC: -1})
	case aGlob:
		fc.out(RegOp{Code: RLoadG, A: dst, B: e.idx, XPC: -1})
	case aConst:
		fc.out(RegOp{Code: RConst, A: dst, Imm: e.c, XPC: -1})
	}
	fc.stack[i] = absEntry{kind: aCanon}
}

func (fc *regFn) matAll() {
	for i := range fc.stack {
		fc.matAt(i)
	}
}

func (fc *regFn) invalidateSlot(s int32) {
	for i, e := range fc.stack {
		if e.kind == aSlot && e.idx == s {
			fc.matAt(i)
		}
	}
}

func (fc *regFn) invalidateGlob(g int32) {
	for i, e := range fc.stack {
		if e.kind == aGlob && e.idx == g {
			fc.matAt(i)
		}
	}
}

// entryReg returns a register holding e (a popped entry whose stack
// position was pos), materializing globals/constants into the scratch
// canonical register for pos when necessary.
func (fc *regFn) entryReg(e absEntry, pos int) int32 {
	switch e.kind {
	case aCanon:
		return fc.canonReg(pos)
	case aSlot:
		return e.idx
	case aGlob:
		dst := fc.canonReg(pos)
		fc.out(RegOp{Code: RLoadG, A: dst, B: e.idx, XPC: -1})
		return dst
	default: // aConst
		dst := fc.canonReg(pos)
		fc.out(RegOp{Code: RConst, A: dst, Imm: e.c, XPC: -1})
		return dst
	}
}

// srcOperand encodes e as a (register, immediate) operand pair: reg < 0
// means "use imm".
func (fc *regFn) srcOperand(e absEntry, pos int) (reg int32, imm int64) {
	if e.kind == aConst {
		return -1, e.c
	}
	return fc.entryReg(e, pos), 0
}

func isCmpOp(op lang.BinaryOp) bool { return op >= lang.BinEq && op <= lang.BinGe }

// emitBlock lowers the block starting at stack pc start.
func (fc *regFn) emitBlock(start int) error {
	d := fc.depthAt[start]
	fc.stack = fc.stack[:0]
	for i := 0; i < d; i++ {
		fc.stack = append(fc.stack, absEntry{kind: aCanon})
	}
	if d > fc.maxObs {
		fc.maxObs = d
	}
	fc.pending = fc.pending[:0]
	end := fc.fn.End
	pc := start
	for pc < end {
		if pc != start && fc.leaders[pc] {
			// Fallthrough boundary: blocks are emitted in pc order, so
			// the successor is next; only deferred ticks force a jump.
			fc.matAll()
			if len(fc.pending) > 0 {
				fc.branchOut(RegOp{Code: RJump, XPC: -1}, pc)
			}
			return nil
		}
		ins := fc.p.Instrs[pc]
		var next Instr
		haveNext := pc+1 < end && !fc.leaders[pc+1]
		if haveNext {
			next = fc.p.Instrs[pc+1]
		}
		switch ins.Op {
		case OpConst:
			fc.push(absEntry{kind: aConst, c: fc.p.Consts[ins.A]})
			fc.pend(pc)
			pc++
		case OpLoadG:
			fc.push(absEntry{kind: aGlob, idx: ins.A})
			fc.pend(pc)
			pc++
		case OpLoadL:
			fc.push(absEntry{kind: aSlot, idx: ins.A})
			fc.pend(pc)
			pc++
		case OpStoreL:
			e := fc.pop()
			fc.invalidateSlot(ins.A)
			pos := len(fc.stack)
			op := RegOp{A: ins.A, XPC: -1}
			switch e.kind {
			case aCanon:
				op.Code, op.B = RMove, fc.canonReg(pos)
			case aSlot:
				op.Code, op.B = RMove, e.idx
			case aGlob:
				op.Code, op.B = RLoadG, e.idx
			case aConst:
				op.Code, op.Imm = RConst, e.c
			}
			fc.out(op, int32(pc))
			pc++
		case OpStoreG:
			e := fc.pop()
			fc.invalidateGlob(ins.A)
			pos := len(fc.stack)
			op := RegOp{Code: RStoreG, A: ins.A, XPC: -1}
			op.B, op.Imm = fc.srcOperand(e, pos)
			fc.out(op, int32(pc))
			pc++
		case OpBin:
			bop := lang.BinaryOp(ins.A)
			y := fc.pop()
			x := fc.pop()
			xpos, ypos := len(fc.stack), len(fc.stack)+1
			trapping := bop == lang.BinDiv || bop == lang.BinMod
			if isCmpOp(bop) && haveNext && (next.Op == OpJZ || next.Op == OpJNZ) {
				// Fused compare-branch; ends the block.
				fc.matAll()
				xr := fc.entryReg(x, xpos)
				dd := ins.A
				if next.Op == OpJZ {
					dd |= 1 << 16
				}
				op := RegOp{B: xr, D: dd, XPC: int32(pc + 1)}
				if y.kind == aConst {
					op.Code, op.Imm = RBrCmpI, y.c
				} else {
					op.Code, op.C = RBrCmp, fc.entryReg(y, ypos)
				}
				fc.branchOut(op, int(next.A), int32(pc), int32(pc+1))
				return nil
			}
			if !trapping && haveNext && next.Op == OpStoreL {
				// Fused arith-store: the bin result lands directly in
				// the named slot. Trapping ops are excluded — the store
				// tick must not be charged before a trap.
				fc.invalidateSlot(next.A)
				xr := fc.entryReg(x, xpos)
				op := RegOp{A: next.A, B: xr, D: ins.A, XPC: -1}
				if y.kind == aConst {
					op.Code, op.Imm = RBinI, y.c
				} else {
					op.Code, op.C = RBin, fc.entryReg(y, ypos)
				}
				fc.out(op, int32(pc), int32(pc+1))
				pc += 2
				continue
			}
			xr := fc.entryReg(x, xpos)
			op := RegOp{A: fc.canonReg(xpos), B: xr, D: ins.A, XPC: -1}
			if trapping {
				op.XPC = int32(pc)
			}
			if y.kind == aConst {
				op.Code, op.Imm = RBinI, y.c
			} else {
				op.Code, op.C = RBin, fc.entryReg(y, ypos)
			}
			fc.out(op, int32(pc))
			fc.push(absEntry{kind: aCanon})
			pc++
		case OpUn:
			x := fc.pop()
			xpos := len(fc.stack)
			if haveNext && next.Op == OpStoreL {
				fc.invalidateSlot(next.A)
				xr := fc.entryReg(x, xpos)
				fc.out(RegOp{Code: RUn, A: next.A, B: xr, D: ins.A, XPC: -1}, int32(pc), int32(pc+1))
				pc += 2
				continue
			}
			xr := fc.entryReg(x, xpos)
			fc.out(RegOp{Code: RUn, A: fc.canonReg(xpos), B: xr, D: ins.A, XPC: -1}, int32(pc))
			fc.push(absEntry{kind: aCanon})
			pc++
		case OpJump:
			fc.matAll()
			fc.branchOut(RegOp{Code: RJump, XPC: -1}, int(ins.A), int32(pc))
			return nil
		case OpJZ, OpJNZ:
			e := fc.pop()
			fc.matAll()
			pos := len(fc.stack)
			code := RBrZ
			if ins.Op == OpJNZ {
				code = RBrNZ
			}
			op := RegOp{Code: code, XPC: int32(pc)}
			op.B, op.Imm = fc.srcOperand(e, pos)
			fc.branchOut(op, int(ins.A), int32(pc))
			return nil
		case OpCall:
			argc := int(ins.B)
			base := len(fc.stack) - argc
			// The callee may write any global: materialize global
			// aliases that outlive the call.
			for i := 0; i < base; i++ {
				if fc.stack[i].kind == aGlob {
					fc.matAt(i)
				}
			}
			args := make([]int32, argc)
			for j := 0; j < argc; j++ {
				e := fc.stack[base+j]
				if e.kind == aConst {
					args[j] = fc.constRef(e.c)
				} else {
					args[j] = fc.entryReg(e, base+j)
				}
			}
			fc.stack = fc.stack[:base]
			dst := fc.canonReg(base)
			fc.out(RegOp{Code: RCall, A: ins.A, D: dst, Args: args, XPC: int32(pc)},
				int32(pc), ^int32(pc))
			fc.push(absEntry{kind: aCanon})
			pc++
		case OpCallB:
			if err := fc.emitBuiltin(pc, ins); err != nil {
				return err
			}
			pc++
		case OpRet:
			e := fc.pop()
			pos := len(fc.stack)
			op := RegOp{Code: RRet, XPC: int32(pc)}
			op.A, op.Imm = fc.srcOperand(e, pos)
			fc.out(op, int32(pc))
			return nil
		case OpPop:
			fc.pop()
			fc.pend(pc)
			pc++
		case OpHalt:
			fc.out(RegOp{Code: RHalt, XPC: int32(pc)}, int32(pc))
			return nil
		default:
			return fmt.Errorf("unknown opcode %v at pc %d", ins.Op, pc)
		}
	}
	return nil
}

// emitBuiltin lowers one OpCallB instruction.
func (fc *regFn) emitBuiltin(pc int, ins Instr) error {
	argc := int(ins.B)
	b := Builtin(ins.A)
	if b == BSpawn {
		base := len(fc.stack) - argc
		args := make([]int32, argc)
		for j := 0; j < argc; j++ {
			e := fc.stack[base+j]
			if e.kind == aConst {
				args[j] = fc.constRef(e.c)
			} else {
				args[j] = fc.entryReg(e, base+j)
			}
		}
		fc.stack = fc.stack[:base]
		fc.out(RegOp{Code: RSpawn, A: fc.canonReg(base), Args: args, XPC: int32(pc)}, int32(pc))
		fc.push(absEntry{kind: aCanon})
		return nil
	}
	var code RegCode
	switch b {
	case BWork:
		code = RWork
	case BBlock:
		code = RBlockB
	case BRand:
		code = RRand
	case BInput:
		code = RInput
	case BNow:
		code = RNow
	case BAlloc:
		code = RAlloc
	case BOut:
		code = ROut
	case BAbs:
		code = RAbs
	case BMin:
		code = RMin
	case BMax:
		code = RMax
	default:
		return fmt.Errorf("unknown builtin %d at pc %d", int(b), pc)
	}
	op := RegOp{Code: code, XPC: int32(pc)}
	switch argc {
	case 0:
	case 1:
		e := fc.pop()
		op.B, op.Imm = fc.srcOperand(e, len(fc.stack))
	case 2:
		y := fc.pop()
		x := fc.pop()
		xpos, ypos := len(fc.stack), len(fc.stack)+1
		// One Imm field: with two constant operands, materialize the
		// left one.
		if x.kind == aConst && y.kind == aConst {
			op.B = fc.entryReg(x, xpos)
			op.C, op.Imm = -1, y.c
		} else {
			if x.kind == aConst {
				op.B, op.Imm = -1, x.c
			} else {
				op.B = fc.entryReg(x, xpos)
			}
			if y.kind == aConst {
				op.C, op.Imm = -1, y.c
			} else {
				op.C = fc.entryReg(y, ypos)
			}
		}
	default:
		return fmt.Errorf("builtin %s with %d args at pc %d", BuiltinName(b), argc, pc)
	}
	op.A = fc.canonReg(len(fc.stack))
	fc.out(op, int32(pc))
	fc.push(absEntry{kind: aCanon})
	return nil
}

// String renders one register op for the disassembler.
func (o RegOp) String() string {
	var body string
	src := func(reg int32, imm int64) string {
		if reg < 0 {
			return fmt.Sprintf("#%d", imm)
		}
		return fmt.Sprintf("r%d", reg)
	}
	switch o.Code {
	case RMove:
		body = fmt.Sprintf("r%d = r%d", o.A, o.B)
	case RConst:
		body = fmt.Sprintf("r%d = #%d", o.A, o.Imm)
	case RLoadG:
		body = fmt.Sprintf("r%d = g%d", o.A, o.B)
	case RStoreG:
		body = fmt.Sprintf("g%d = %s", o.A, src(o.B, o.Imm))
	case RBin:
		body = fmt.Sprintf("r%d = r%d %s r%d", o.A, o.B, lang.BinaryOp(o.D), o.C)
	case RBinI:
		body = fmt.Sprintf("r%d = r%d %s #%d", o.A, o.B, lang.BinaryOp(o.D), o.Imm)
	case RUn:
		body = fmt.Sprintf("r%d = %s r%d", o.A, lang.UnaryOp(o.D), o.B)
	case RJump:
		body = fmt.Sprintf("jump %d", o.A)
	case RBrZ:
		body = fmt.Sprintf("brz %s -> %d", src(o.B, o.Imm), o.A)
	case RBrNZ:
		body = fmt.Sprintf("brnz %s -> %d", src(o.B, o.Imm), o.A)
	case RBrCmp, RBrCmpI:
		cmp := lang.BinaryOp(o.D & 0xffff)
		neg := ""
		if o.D>>16 != 0 {
			neg = "!"
		}
		rhs := fmt.Sprintf("r%d", o.C)
		if o.Code == RBrCmpI {
			rhs = fmt.Sprintf("#%d", o.Imm)
		}
		body = fmt.Sprintf("br %s(r%d %s %s) -> %d", neg, o.B, cmp, rhs, o.A)
	case RCall:
		body = fmt.Sprintf("r%d = call f%d %v", o.D, o.A, o.Args)
	case RRet:
		body = fmt.Sprintf("ret %s", src(o.A, o.Imm))
	case RHalt:
		body = "halt"
	case RSpawn:
		body = fmt.Sprintf("r%d = spawn %v", o.A, o.Args)
	case RNow, RAlloc:
		body = fmt.Sprintf("r%d = %s()", o.A, o.Code)
	case RMin, RMax:
		body = fmt.Sprintf("r%d = %s(%s, %s)", o.A, o.Code, src(o.B, 0), src(o.C, o.Imm))
	default:
		body = fmt.Sprintf("r%d = %s(%s)", o.A, o.Code, src(o.B, o.Imm))
	}
	return fmt.Sprintf("%-28s ; cost=%d n=%d pcs=%v", body, o.Cost, o.N, o.PCs)
}

// Disasm renders the register code of every function, for
// debugging and the CLI disassembler.
func (rp *RegProgram) Disasm() string {
	var sb []byte
	for i, f := range rp.Prog.Funcs {
		sb = append(sb, fmt.Sprintf("func %s (slots=%d frame=%d)\n",
			f.Name, rp.Funcs[i].NumSlots, rp.Funcs[i].FrameSize)...)
		for j, op := range rp.Funcs[i].Code {
			sb = append(sb, fmt.Sprintf("  %3d  %s\n", j, op)...)
		}
	}
	return string(sb)
}
