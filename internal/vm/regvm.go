package vm

// The register engine: executes compiler.RegProgram code over flat arena
// frames. It is the only production engine, and it must stay
// observationally indistinguishable from the tree walker — the original
// stack-IR interpreter, kept in tree_test.go as the semantic reference:
// every exported accessor, callback, counter, error and alarm-time
// snapshot matches tick for tick (see the determinism contract in
// compiler/reg.go and DESIGN.md §11). The differential suite in
// diff_test.go and FuzzDiffExec enforce this.
//
// Tick accounting per RegOp: when no scaling hook is active and the whole
// schedule fits below every alarm and budget boundary, the op's Cost is
// added in one batch (the fast path — nothing observable can happen
// inside the group). Otherwise stepTicks replays the schedule one
// constituent tick at a time through vm.charge, with the same budget
// prechecks, InstrCount increments and PC updates the tree walker
// performs, so alarm callbacks and fractional-carry scaling see an
// identical world.
//
// The dispatch loop keeps the tick and instruction counters in locals
// (written back to the VM around every call that can observe or mutate
// them) and inlines operand decoding and the non-trapping arithmetic:
// per-op loads and stores of VM fields otherwise dominate the profile.

import (
	"fmt"

	"vprof/internal/compiler"
	"vprof/internal/lang"
)

// stepTicks replays a constituent tick schedule. Entries >= 0 are
// instruction starts (budget precheck, InstrCount++, then a 1-tick
// charge); entries < 0 are continuation ticks at pc ^e (no precheck, no
// InstrCount — OpCall's second tick). A budget exhaustion or a pending
// Interrupt aborts the remainder of the schedule, exactly like the tree
// walker's per-instruction loop-top checks.
func (vm *VM) stepTicks(pcs []int32) error {
	for _, e := range pcs {
		if e >= 0 {
			// Like the tree walker's loop top, the PC already points at
			// the instruction about to run when the checks fire, so an
			// error leaves vm.PC() on the unexecuted instruction.
			vm.pc = int(e)
			if vm.stopErr != nil {
				return vm.stopErr
			}
			if vm.ticks >= vm.cfg.MaxTicks {
				return ErrTicksExceeded
			}
			if vm.cfg.MaxWallTicks > 0 && vm.ticks+vm.blocked >= vm.cfg.MaxWallTicks {
				return ErrTicksExceeded
			}
			vm.InstrCount++
		} else {
			vm.pc = int(^e)
		}
		vm.charge(1)
	}
	return nil
}

// regTrap raises a runtime error at stack pc (the trapping instruction's
// XPC), mirroring the tree walker's trap.
func (vm *VM) regTrap(pc int32, msg string) error {
	vm.pc = int(pc)
	line := 0
	if p := int(pc); p >= 0 && p < len(vm.prog.Instrs) {
		line = int(vm.prog.Instrs[p].Line)
	}
	return &RuntimeError{PC: int(pc), Line: line, Msg: msg}
}

// regBinop evaluates the binary ops the dispatch loop does not inline:
// the trapping division family and the (unreachable) illegal-op default.
func (vm *VM) regBinop(op *compiler.RegOp, bop lang.BinaryOp, x, y Value) (Value, error) {
	switch bop {
	case lang.BinDiv:
		if y.I == 0 {
			return Value{}, vm.regTrap(op.XPC, "division by zero")
		}
		return Value{I: x.I / y.I}, nil
	case lang.BinMod:
		if y.I == 0 {
			return Value{}, vm.regTrap(op.XPC, "modulo by zero")
		}
		return Value{I: x.I % y.I}, nil
	}
	return Value{}, vm.regTrap(op.XPC, fmt.Sprintf("illegal binary op %d", int(bop)))
}

func regCmp(bop lang.BinaryOp, x, y Value) bool {
	switch bop {
	case lang.BinEq:
		return x.I == y.I && x.Ptr == y.Ptr
	case lang.BinNeq:
		return x.I != y.I || x.Ptr != y.Ptr
	case lang.BinLt:
		return x.I < y.I
	case lang.BinLe:
		return x.I <= y.I
	case lang.BinGt:
		return x.I > y.I
	default: // lang.BinGe
		return x.I >= y.I
	}
}

// growRegs extends the register arena to at least need entries and
// re-slices every frame's named-slot view onto the new backing array.
func (vm *VM) growRegs(rp *compiler.RegProgram, need int) {
	if need <= len(vm.regs) {
		return
	}
	newCap := 2 * len(vm.regs)
	if newCap < need {
		newCap = need
	}
	if newCap < 64 {
		newCap = 64
	}
	nr := make([]Value, newCap)
	copy(nr, vm.regs)
	vm.regs = nr
	for i := range vm.frames {
		f := &vm.frames[i]
		ns := rp.Funcs[f.funcIndex].NumSlots
		f.slots = nr[f.base : f.base+ns]
	}
}

// runRegister executes rootFunc (with args copied into its named slots)
// on the register engine. Globals must already be initialized by the
// caller (Run / RunFunc).
func (vm *VM) runRegister(rootFunc int, args []Value) error {
	rp := vm.prog.Reg
	cfg := &vm.cfg
	cpuAlarms := cfg.AlarmInterval > 0 && cfg.OnAlarm != nil
	wallAlarms := cfg.WallAlarmInterval > 0 && cfg.OnWallAlarm != nil
	anyScaleCfg := cfg.CostScale != nil || cfg.ScaleSpan != nil
	maxTicks := cfg.MaxTicks
	maxWall := cfg.MaxWallTicks
	onBranch := cfg.OnBranch
	// noHooks: nothing can fire, rescale or bound a charge besides the
	// plain CPU budget — the per-op fast check collapses to one compare.
	noHooks := !cpuAlarms && !wallAlarms && !anyScaleCfg &&
		cfg.ScaleStack == nil && maxWall <= 0
	// checkStop: Interrupt can only be called mid-run from user code —
	// alarm or branch/return callbacks. Every hook that can run user
	// code either appears here or (CostScale/ScaleSpan/ScaleStack
	// closures) forces the careful path, whose stepTicks prechecks
	// stopErr per instruction; when none is configured the loop-top
	// check would read an invariantly-nil field every dispatch.
	checkStop := cpuAlarms || wallAlarms || onBranch != nil || cfg.OnReturn != nil

	vm.markedDepth = 0
	vm.carryStack, vm.carrySpan = 0, 0
	if vm.marked(rootFunc) {
		vm.markedDepth = 1
	}

	funcs := rp.Funcs
	rootRF := &funcs[rootFunc]
	vm.growRegs(rp, int(rootRF.FrameSize))
	for i := int32(0); i < rootRF.NumSlots; i++ {
		vm.regs[i] = Value{}
	}
	copy(vm.regs, args)
	vm.frames = append(vm.frames[:0], frame{
		funcIndex: rootFunc,
		retPC:     -1,
		slots:     vm.regs[0:rootRF.NumSlots],
	})
	vm.pc = vm.prog.Funcs[rootFunc].Entry

	fi := rootFunc
	code := rootRF.Code
	var base int32
	var rpc int32
	regs := vm.regs
	consts := rp.Consts
	bt := vm.BranchTaken

	// ticks and instr shadow vm.ticks / vm.InstrCount in the hot loop so
	// they stay in machine registers (a closure or defer capturing them
	// would force them to memory). They are published to the real fields
	// before every call that can observe or mutate them — charge,
	// chargeBlocked, stepTicks, user callbacks — re-read after calls
	// that mutate them, and written back at every return site.
	ticks := vm.ticks
	instr := vm.InstrCount

	if vm.stopErr != nil { // Interrupt before the run started
		return vm.stopErr
	}

	for {
		if checkStop && vm.stopErr != nil {
			// The tree walker returns a pending Interrupt at the next
			// instruction boundary with the PC on the unexecuted
			// instruction. A stop can reach this loop top (rather than a
			// stepTicks precheck) only when the alarm fired on a group's
			// final tick; advance vm.pc to the next real instruction —
			// the first tick-schedule entry of the next non-synthetic op
			// in straight-line order.
			for i := rpc; i < int32(len(code)); i++ {
				if len(code[i].PCs) > 0 {
					vm.pc = int(code[i].PCs[0])
					break
				}
			}
			vm.ticks, vm.InstrCount = ticks, instr
			return vm.stopErr
		}
		op := &code[rpc]

		// Tick accounting. The fast path requires: no scaling hook can
		// rescale this charge, and no alarm or budget boundary falls at
		// or inside the group (strictly before the next alarm tick, at
		// most MaxTicks/MaxWallTicks — then every constituent
		// instruction start lies below every boundary, so the batch is
		// indistinguishable from per-tick charging).
		fast := false
		t2 := ticks + int64(op.Cost)
		if noHooks {
			fast = t2 <= maxTicks
		} else if !anyScaleCfg && vm.markedDepth == 0 {
			fast = t2 <= maxTicks &&
				(!cpuAlarms || t2 < vm.next) &&
				(!wallAlarms || t2+vm.blocked < vm.nextW) &&
				(maxWall <= 0 || t2+vm.blocked <= maxWall)
		}
		if fast {
			ticks = t2
			instr += int64(op.N)
		} else if op.Code != compiler.RCall {
			vm.ticks, vm.InstrCount = ticks, instr
			err := vm.stepTicks(op.PCs)
			ticks, instr = vm.ticks, vm.InstrCount
			if err != nil {
				return err
			}
		}

		switch op.Code {
		case compiler.RCall:
			// Calls charge in two phases: the call tick (with
			// precheck), then — like the tree walker, which counts the
			// transfer and only then charges call overhead — the
			// continuation tick, with the branch/edge bookkeeping in
			// between so alarm callbacks on either tick see the same
			// counters.
			if !fast {
				n := len(op.PCs)
				vm.ticks, vm.InstrCount = ticks, instr
				err := vm.stepTicks(op.PCs[:n-1])
				ticks, instr = vm.ticks, vm.InstrCount
				if err != nil {
					return err
				}
			}
			// The transfer is counted only once the call tick landed —
			// an alarm on that tick must not yet see it — and before the
			// overhead tick, which an alarm does observe it on.
			bt[fi]++
			if cfg.CountCalls {
				if vm.CallEdges == nil {
					vm.CallEdges = map[[2]int32]int64{}
				}
				vm.CallEdges[[2]int32{int32(fi), op.A}]++
			}
			if !fast {
				vm.pc = int(op.XPC)
				vm.ticks, vm.InstrCount = ticks, instr
				vm.charge(1)
				ticks, instr = vm.ticks, vm.InstrCount
			}
			callee := int(op.A)
			crf := &funcs[callee]
			nb := base + funcs[fi].FrameSize
			if int(nb+crf.FrameSize) > len(regs) {
				vm.growRegs(rp, int(nb+crf.FrameSize))
				regs = vm.regs
			}
			for i, a := range op.Args {
				if a < 0 {
					regs[nb+int32(i)] = Value{I: consts[^a]}
				} else {
					regs[nb+int32(i)] = regs[base+a]
				}
			}
			for i := int32(len(op.Args)); i < crf.NumSlots; i++ {
				regs[nb+i] = Value{}
			}
			if len(vm.frames) < cap(vm.frames) {
				vm.frames = vm.frames[:len(vm.frames)+1]
			} else {
				vm.frames = append(vm.frames, frame{})
			}
			f := &vm.frames[len(vm.frames)-1]
			f.funcIndex = callee
			f.retPC = int(op.XPC)
			f.slots = vm.regs[nb : nb+crf.NumSlots]
			f.base = nb
			f.rret = rpc + 1
			f.rres = op.D
			if vm.marked(callee) {
				vm.markedDepth++
			}
			fi = callee
			base = nb
			code = crf.Code
			rpc = 0
		case compiler.RMove:
			regs[base+op.A] = regs[base+op.B]
			rpc++
		case compiler.RConst:
			regs[base+op.A] = Value{I: op.Imm}
			rpc++
		case compiler.RLoadG:
			regs[base+op.A] = vm.globals[op.B]
			rpc++
		case compiler.RStoreG:
			if op.B < 0 {
				vm.globals[op.A] = Value{I: op.Imm}
			} else {
				vm.globals[op.A] = regs[base+op.B]
			}
			rpc++
		case compiler.RBin, compiler.RBinI:
			x := regs[base+op.B]
			var y Value
			if op.Code == compiler.RBin {
				y = regs[base+op.C]
			} else {
				y = Value{I: op.Imm}
			}
			var v Value
			switch lang.BinaryOp(op.D) {
			case lang.BinAdd:
				v = Value{I: x.I + y.I}
			case lang.BinSub:
				v = Value{I: x.I - y.I}
			case lang.BinMul:
				v = Value{I: x.I * y.I}
			case lang.BinEq:
				v = boolVal(x.I == y.I && x.Ptr == y.Ptr)
			case lang.BinNeq:
				v = boolVal(x.I != y.I || x.Ptr != y.Ptr)
			case lang.BinLt:
				v = boolVal(x.I < y.I)
			case lang.BinLe:
				v = boolVal(x.I <= y.I)
			case lang.BinGt:
				v = boolVal(x.I > y.I)
			case lang.BinGe:
				v = boolVal(x.I >= y.I)
			default: // div, mod, illegal
				var err error
				v, err = vm.regBinop(op, lang.BinaryOp(op.D), x, y)
				if err != nil {
					vm.ticks, vm.InstrCount = ticks, instr
					return err
				}
			}
			regs[base+op.A] = v
			rpc++
		case compiler.RUn:
			x := regs[base+op.B]
			if op.D == int32(lang.UnaryNot) {
				regs[base+op.A] = boolVal(x.I == 0 && !x.Ptr)
			} else {
				regs[base+op.A] = Value{I: -x.I}
			}
			rpc++
		case compiler.RJump:
			rpc = op.A
		case compiler.RBrZ, compiler.RBrNZ:
			var v Value
			if op.B < 0 {
				v = Value{I: op.Imm}
			} else {
				v = regs[base+op.B]
			}
			taken := v.I == 0 && !v.Ptr
			if op.Code == compiler.RBrNZ {
				taken = !taken
			}
			if onBranch != nil {
				vm.ticks, vm.InstrCount = ticks, instr
				onBranch(int(op.XPC), taken)
			}
			if taken {
				bt[fi]++
				rpc = op.A
			} else {
				rpc++
			}
		case compiler.RBrCmp, compiler.RBrCmpI:
			x := regs[base+op.B]
			var y Value
			if op.Code == compiler.RBrCmp {
				y = regs[base+op.C]
			} else {
				y = Value{I: op.Imm}
			}
			taken := regCmp(lang.BinaryOp(op.D&0xffff), x, y)
			if op.D>>16 != 0 {
				taken = !taken
			}
			if onBranch != nil {
				vm.ticks, vm.InstrCount = ticks, instr
				onBranch(int(op.XPC), taken)
			}
			if taken {
				bt[fi]++
				rpc = op.A
			} else {
				rpc++
			}
		case compiler.RRet:
			var v Value
			if op.A < 0 {
				v = Value{I: op.Imm}
			} else {
				v = regs[base+op.A]
			}
			bt[fi]++
			if cfg.OnReturn != nil {
				vm.ticks, vm.InstrCount = ticks, instr
				cfg.OnReturn(fi, v)
			}
			if vm.marked(fi) {
				vm.markedDepth--
			}
			nf := len(vm.frames) - 1
			rret, rres := vm.frames[nf].rret, vm.frames[nf].rres
			vm.frames = vm.frames[:nf]
			if nf == 0 {
				vm.result = v
				vm.pc = int(op.XPC)
				vm.ticks, vm.InstrCount = ticks, instr
				return nil
			}
			caller := &vm.frames[nf-1]
			fi = caller.funcIndex
			base = caller.base
			code = funcs[fi].Code
			regs[base+rres] = v
			rpc = rret
		case compiler.RHalt:
			vm.pc = int(op.XPC)
			vm.ticks, vm.InstrCount = ticks, instr
			return nil
		case compiler.RWork:
			var n int64
			if op.B < 0 {
				n = op.Imm
			} else {
				n = regs[base+op.B].I
			}
			if n < 0 {
				n = 0
			}
			vm.pc = int(op.XPC)
			if noHooks {
				ticks += n
			} else {
				vm.ticks, vm.InstrCount = ticks, instr
				vm.charge(n)
				ticks, instr = vm.ticks, vm.InstrCount
			}
			regs[base+op.A] = Value{I: n}
			rpc++
		case compiler.RBlockB:
			var n int64
			if op.B < 0 {
				n = op.Imm
			} else {
				n = regs[base+op.B].I
			}
			if n < 0 {
				n = 0
			}
			vm.pc = int(op.XPC)
			if noHooks {
				vm.blocked += n
			} else {
				vm.ticks, vm.InstrCount = ticks, instr
				vm.chargeBlocked(n)
				ticks, instr = vm.ticks, vm.InstrCount
			}
			regs[base+op.A] = Value{I: n}
			rpc++
		case compiler.RRand:
			var n int64
			if op.B < 0 {
				n = op.Imm
			} else {
				n = regs[base+op.B].I
			}
			if n <= 0 {
				regs[base+op.A] = Value{I: 0}
			} else {
				regs[base+op.A] = Value{I: int64(vm.xorshift() % uint64(n))}
			}
			rpc++
		case compiler.RInput:
			var k int64
			if op.B < 0 {
				k = op.Imm
			} else {
				k = regs[base+op.B].I
			}
			var v int64
			if k >= 0 && k < int64(len(cfg.Inputs)) {
				v = cfg.Inputs[k]
			}
			regs[base+op.A] = Value{I: v}
			rpc++
		case compiler.RNow:
			regs[base+op.A] = Value{I: ticks + vm.blocked}
			rpc++
		case compiler.RAlloc:
			vm.nextPtr += 16
			regs[base+op.A] = Value{I: 1<<40 + vm.nextPtr, Ptr: true}
			rpc++
		case compiler.ROut:
			var v Value
			if op.B < 0 {
				v = Value{I: op.Imm}
			} else {
				v = regs[base+op.B]
			}
			vm.Outputs = append(vm.Outputs, v.I)
			regs[base+op.A] = v
			rpc++
		case compiler.RAbs:
			var v int64
			if op.B < 0 {
				v = op.Imm
			} else {
				v = regs[base+op.B].I
			}
			if v < 0 {
				v = -v
			}
			regs[base+op.A] = Value{I: v}
			rpc++
		case compiler.RMin, compiler.RMax:
			var x, y int64
			if op.B < 0 {
				x = op.Imm
			} else {
				x = regs[base+op.B].I
			}
			if op.C < 0 {
				y = op.Imm
			} else {
				y = regs[base+op.C].I
			}
			if op.Code == compiler.RMin {
				if y < x {
					x = y
				}
			} else if y > x {
				x = y
			}
			regs[base+op.A] = Value{I: x}
			rpc++
		case compiler.RSpawn:
			sargs := make([]Value, len(op.Args))
			for i, a := range op.Args {
				if a < 0 {
					sargs[i] = Value{I: consts[^a]}
				} else {
					sargs[i] = regs[base+a]
				}
			}
			req := ChildRequest{
				FuncIndex: int(sargs[0].I),
				Args:      sargs[1:],
				Globals:   vm.Globals(),
			}
			vm.Children = append(vm.Children, req)
			regs[base+op.A] = Value{I: int64(len(vm.Children))}
			rpc++
		default:
			vm.ticks, vm.InstrCount = ticks, instr
			return vm.regTrap(op.XPC, fmt.Sprintf("illegal register opcode %v", op.Code))
		}
	}
}
