package vm

// The tree walker: the original switch-dispatch, operand-stack interpreter
// over the stack IR (compiler.Program.Instrs). It no longer ships — every
// production run goes through the register engine (regvm.go) — but it stays
// the semantic reference the register engine is checked against: the
// differential suite (diff_test.go), FuzzDiffExec, semantics_test.go and
// recycle_test.go run every program on both and compare everything
// observable. export_test.go exposes it to package vm_test.

import (
	"fmt"

	"vprof/internal/compiler"
	"vprof/internal/lang"
)

// treeWalker runs the tree walker on a VM. The VM supplies all state the
// two engines share (frames, globals, tick accounting, alarms); the operand
// stacks and the halt flag, which only the tree walker uses, live here.
type treeWalker struct {
	*VM
	stacks [][]Value // operand stack per frame, parallel to VM.frames
	halted bool
}

// runTree is the tree-walking counterpart of VM.Run.
func (vm *VM) runTree() error {
	initIdx := len(vm.prog.Funcs) - 1 // __init is emitted last
	vm.frames = append(vm.frames[:0], frame{funcIndex: initIdx, retPC: -1})
	vm.markedDepth = 0
	vm.carryStack, vm.carrySpan = 0, 0
	if vm.marked(initIdx) {
		vm.markedDepth = 1
	}
	vm.pc = vm.prog.EntryPC
	return (&treeWalker{VM: vm, stacks: make([][]Value, 1)}).loop()
}

// runFuncTree is the tree-walking counterpart of VM.RunFunc.
func (vm *VM) runFuncTree(funcIndex int, args []Value, globals []Value) error {
	fn := vm.prog.Funcs[funcIndex]
	if len(args) != fn.NumParams {
		return fmt.Errorf("vm: RunFunc %s: %d args, want %d", fn.Name, len(args), fn.NumParams)
	}
	copy(vm.globals, globals)
	fr := frame{funcIndex: funcIndex, retPC: -1, slots: make([]Value, fn.NumSlots)}
	copy(fr.slots, args)
	vm.frames = append(vm.frames[:0], fr)
	vm.markedDepth = 0
	vm.carryStack, vm.carrySpan = 0, 0
	if vm.marked(funcIndex) {
		vm.markedDepth = 1
	}
	vm.pc = fn.Entry
	return (&treeWalker{VM: vm, stacks: make([][]Value, 1)}).loop()
}

func (vm *treeWalker) top() *frame { return &vm.frames[len(vm.frames)-1] }

func (vm *treeWalker) push(v Value) {
	s := &vm.stacks[len(vm.stacks)-1]
	*s = append(*s, v)
}

func (vm *treeWalker) pop() Value {
	s := &vm.stacks[len(vm.stacks)-1]
	v := (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
	return v
}

func (vm *treeWalker) trap(msg string) error {
	line := 0
	if vm.pc >= 0 && vm.pc < len(vm.prog.Instrs) {
		line = int(vm.prog.Instrs[vm.pc].Line)
	}
	return &RuntimeError{PC: vm.pc, Line: line, Msg: msg}
}

func (vm *treeWalker) loop() error {
	prog := vm.prog
	for !vm.halted {
		if vm.stopErr != nil {
			return vm.stopErr
		}
		if vm.ticks >= vm.cfg.MaxTicks {
			return ErrTicksExceeded
		}
		if vm.cfg.MaxWallTicks > 0 && vm.WallTicks() >= vm.cfg.MaxWallTicks {
			return ErrTicksExceeded
		}
		ins := prog.Instrs[vm.pc]
		vm.InstrCount++
		vm.charge(1)
		switch ins.Op {
		case compiler.OpConst:
			vm.push(Value{I: prog.Consts[ins.A]})
			vm.pc++
		case compiler.OpLoadG:
			vm.push(vm.globals[ins.A])
			vm.pc++
		case compiler.OpStoreG:
			vm.globals[ins.A] = vm.pop()
			vm.pc++
		case compiler.OpLoadL:
			vm.push(vm.top().slots[ins.A])
			vm.pc++
		case compiler.OpStoreL:
			vm.top().slots[ins.A] = vm.pop()
			vm.pc++
		case compiler.OpBin:
			y := vm.pop()
			x := vm.pop()
			v, err := vm.binop(ins.A, x, y)
			if err != nil {
				return err
			}
			vm.push(v)
			vm.pc++
		case compiler.OpUn:
			x := vm.pop()
			if ins.A == 0 { // UnaryNot
				vm.push(boolVal(x.I == 0 && !x.Ptr))
			} else { // UnaryNeg
				vm.push(Value{I: -x.I})
			}
			vm.pc++
		case compiler.OpJump:
			vm.pc = int(ins.A)
		case compiler.OpJZ:
			v := vm.pop()
			taken := v.I == 0 && !v.Ptr
			if vm.cfg.OnBranch != nil {
				vm.cfg.OnBranch(vm.pc, taken)
			}
			if taken {
				vm.BranchTaken[vm.top().funcIndex]++
				vm.pc = int(ins.A)
			} else {
				vm.pc++
			}
		case compiler.OpJNZ:
			v := vm.pop()
			taken := v.I != 0 || v.Ptr
			if vm.cfg.OnBranch != nil {
				vm.cfg.OnBranch(vm.pc, taken)
			}
			if taken {
				vm.BranchTaken[vm.top().funcIndex]++
				vm.pc = int(ins.A)
			} else {
				vm.pc++
			}
		case compiler.OpCall:
			// A call is a taken control transfer (Intel-PT-style branch
			// accounting attributes it to the caller).
			vm.BranchTaken[vm.top().funcIndex]++
			if vm.cfg.CountCalls {
				if vm.CallEdges == nil {
					vm.CallEdges = map[[2]int32]int64{}
				}
				vm.CallEdges[[2]int32{int32(vm.top().funcIndex), ins.A}]++
			}
			// Call overhead is charged before the callee frame exists,
			// so an alarm here still observes the caller's registers at
			// the call PC.
			vm.charge(1)
			fn := prog.Funcs[ins.A]
			fr := frame{
				funcIndex: int(ins.A),
				retPC:     vm.pc,
				slots:     make([]Value, fn.NumSlots),
			}
			argc := int(ins.B)
			for i := argc - 1; i >= 0; i-- {
				fr.slots[i] = vm.pop()
			}
			vm.frames = append(vm.frames, fr)
			vm.stacks = append(vm.stacks, nil)
			if vm.marked(int(ins.A)) {
				vm.markedDepth++
			}
			vm.pc = fn.Entry
		case compiler.OpCallB:
			if err := vm.builtin(compiler.Builtin(ins.A), int(ins.B)); err != nil {
				return err
			}
			vm.pc++
		case compiler.OpRet:
			v := vm.pop()
			ret := vm.top().retPC
			// The return transfer is attributed to the returning
			// function.
			vm.BranchTaken[vm.top().funcIndex]++
			if vm.cfg.OnReturn != nil {
				vm.cfg.OnReturn(vm.top().funcIndex, v)
			}
			if vm.marked(vm.top().funcIndex) {
				vm.markedDepth--
			}
			vm.frames = vm.frames[:len(vm.frames)-1]
			vm.stacks = vm.stacks[:len(vm.stacks)-1]
			if len(vm.frames) == 0 {
				vm.result = v
				vm.halted = true
				break
			}
			vm.push(v)
			vm.pc = ret + 1
		case compiler.OpPop:
			vm.pop()
			vm.pc++
		case compiler.OpHalt:
			vm.halted = true
		default:
			return vm.trap(fmt.Sprintf("illegal opcode %v", ins.Op))
		}
	}
	return nil
}

func (vm *treeWalker) binop(op int32, x, y Value) (Value, error) {
	switch lang.BinaryOp(op) {
	case lang.BinAdd:
		return Value{I: x.I + y.I}, nil
	case lang.BinSub:
		return Value{I: x.I - y.I}, nil
	case lang.BinMul:
		return Value{I: x.I * y.I}, nil
	case lang.BinDiv:
		if y.I == 0 {
			return Value{}, vm.trap("division by zero")
		}
		return Value{I: x.I / y.I}, nil
	case lang.BinMod:
		if y.I == 0 {
			return Value{}, vm.trap("modulo by zero")
		}
		return Value{I: x.I % y.I}, nil
	case lang.BinEq:
		return boolVal(x.I == y.I && x.Ptr == y.Ptr), nil
	case lang.BinNeq:
		return boolVal(x.I != y.I || x.Ptr != y.Ptr), nil
	case lang.BinLt:
		return boolVal(x.I < y.I), nil
	case lang.BinLe:
		return boolVal(x.I <= y.I), nil
	case lang.BinGt:
		return boolVal(x.I > y.I), nil
	case lang.BinGe:
		return boolVal(x.I >= y.I), nil
	}
	return Value{}, vm.trap(fmt.Sprintf("illegal binary op %d", op))
}

func (vm *treeWalker) builtin(b compiler.Builtin, argc int) error {
	switch b {
	case compiler.BWork:
		n := vm.pop().I
		if n < 0 {
			n = 0
		}
		vm.charge(n)
		vm.push(Value{I: n})
	case compiler.BAlloc:
		vm.nextPtr += 16
		vm.push(Value{I: 1<<40 + vm.nextPtr, Ptr: true})
	case compiler.BInput:
		k := vm.pop().I
		var v int64
		if k >= 0 && k < int64(len(vm.cfg.Inputs)) {
			v = vm.cfg.Inputs[k]
		}
		vm.push(Value{I: v})
	case compiler.BRand:
		n := vm.pop().I
		if n <= 0 {
			vm.push(Value{I: 0})
			break
		}
		vm.push(Value{I: int64(vm.xorshift() % uint64(n))})
	case compiler.BNow:
		vm.push(Value{I: vm.WallTicks()})
	case compiler.BSpawn:
		args := make([]Value, argc)
		for i := argc - 1; i >= 0; i-- {
			args[i] = vm.pop()
		}
		req := ChildRequest{
			FuncIndex: int(args[0].I),
			Args:      args[1:],
			Globals:   vm.Globals(),
		}
		vm.Children = append(vm.Children, req)
		vm.push(Value{I: int64(len(vm.Children))}) // child pid-like handle
	case compiler.BOut:
		v := vm.pop()
		vm.Outputs = append(vm.Outputs, v.I)
		vm.push(v)
	case compiler.BAbs:
		v := vm.pop().I
		if v < 0 {
			v = -v
		}
		vm.push(Value{I: v})
	case compiler.BMin:
		y := vm.pop().I
		x := vm.pop().I
		if y < x {
			x = y
		}
		vm.push(Value{I: x})
	case compiler.BMax:
		y := vm.pop().I
		x := vm.pop().I
		if y > x {
			x = y
		}
		vm.push(Value{I: x})
	case compiler.BBlock:
		n := vm.pop().I
		if n < 0 {
			n = 0
		}
		vm.chargeBlocked(n)
		vm.push(Value{I: n})
	default:
		return vm.trap(fmt.Sprintf("illegal builtin %d", int(b)))
	}
	return nil
}
