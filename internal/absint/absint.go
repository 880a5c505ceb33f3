package absint

import (
	"fmt"

	"vprof/internal/cfa"
	"vprof/internal/compiler"
	"vprof/internal/lang"
)

// widenDelay is how many joins a loop-head variable absorbs before the
// extrapolation to ±inf kicks in: one pass of plain joins keeps bounds like
// "i starts at 0" exact, widening then guarantees termination.
const widenDelay = 2

// narrowRounds bounds the descending (narrowing) iteration that claws back
// precision lost to widening. Narrow only improves sentinel bounds, so the
// sequence is finite regardless; two rounds settle the loop nests the
// structured compiler emits.
const narrowRounds = 2

// absVal is one abstract operand-stack value: its interval plus the
// provenance the checker rules and trip-count inference need.
type absVal struct {
	iv     Interval
	varID  int      // var id of an unmodified load, else -1 (drives refinement)
	depVar int      // single var the value is derived from, else -1
	sym    string   // symbolic display form ("n_rows", "input(0)", "row*3")
	stable bool     // derived only from constants and input(k): run-invariant
	cmp    *cmpExpr // set when the value is a comparison result
}

type cmpExpr struct {
	op   CmpOp
	x, y absVal
}

func topVal() absVal { return absVal{iv: Top(), varID: -1, depVar: -1} }

// state is the abstract machine state at a block boundary: one interval per
// cfa variable id plus the abstract operand stack (structured lowering
// keeps stack depth equal across join predecessors; short-circuit && / ||
// results cross block boundaries on it).
type state struct {
	vars  []Interval
	stack []absVal
}

func (s *state) clone() *state {
	n := &state{vars: make([]Interval, len(s.vars)), stack: make([]absVal, len(s.stack))}
	copy(n.vars, s.vars)
	copy(n.stack, s.stack)
	return n
}

func joinVal(a, b absVal) absVal {
	out := absVal{iv: Join(a.iv, b.iv), varID: -1, depVar: -1}
	if a.varID == b.varID {
		out.varID = a.varID
	}
	if a.depVar == b.depVar {
		out.depVar = a.depVar
	}
	if a.sym == b.sym {
		out.sym = a.sym
	}
	out.stable = a.stable && b.stable
	return out
}

// joinInto merges src into dst (dst may be nil = bottom), reporting change.
// widen applies the loop-head extrapolation on variable intervals.
func joinInto(dst *state, src *state, widen bool) (*state, bool) {
	if dst == nil {
		return src.clone(), true
	}
	changed := false
	for i := range dst.vars {
		var next Interval
		if widen {
			next = Widen(dst.vars[i], Join(dst.vars[i], src.vars[i]))
		} else {
			next = Join(dst.vars[i], src.vars[i])
		}
		if next != dst.vars[i] {
			dst.vars[i] = next
			changed = true
		}
	}
	if len(dst.stack) != len(src.stack) {
		// Unbalanced stacks cannot happen with the structured compiler;
		// degrade to an empty stack (pops read Top) rather than guess.
		if len(dst.stack) != 0 {
			dst.stack = nil
			changed = true
		}
		return dst, changed
	}
	for i := range dst.stack {
		j := joinVal(dst.stack[i], src.stack[i])
		if widen {
			j.iv = Widen(dst.stack[i].iv, j.iv)
		}
		if j != dst.stack[i] && (j.iv != dst.stack[i].iv || j.varID != dst.stack[i].varID ||
			j.depVar != dst.stack[i].depVar || j.sym != dst.stack[i].sym || j.stable != dst.stack[i].stable) {
			dst.stack[i] = j
			changed = true
		} else {
			// Comparison provenance does not survive joins.
			if dst.stack[i].cmp != nil {
				dst.stack[i].cmp = nil
			}
		}
	}
	return dst, changed
}

// workSite is one work()/block() builtin call with its abstract argument.
type workSite struct {
	PC      int
	Arg     absVal
	Blocked bool // block(n): wall time, not CPU ticks
}

// callSite is one OpCall with its abstract arguments (in parameter order).
type callSite struct {
	PC     int
	Callee int
	Args   []absVal
}

// blockFacts is what one final simulation pass records per basic block.
type blockFacts struct {
	Works     []workSite
	Calls     []callSite
	Branch    absVal // value popped by a terminal JZ/JNZ
	HasBranch bool
}

// FuncResult is the abstract interpretation of one function: block-entry
// states, per-loop trip bounds, and per-block/total cost polynomials.
type FuncResult struct {
	A     *cfa.FuncAnalysis
	In    []*state // nil = value-unreachable
	Facts []blockFacts
	// Bounds maps each loop's header block to its inferred trip bound.
	Bounds map[int]Bound
	// BlockCost is the single-execution cost bound per block, callee
	// costs included.
	BlockCost []Poly
	// Cost is the function's total static cost bound: block costs
	// composed through the loop nest.
	Cost Poly
}

// Analysis is the whole-program abstract interpretation.
type Analysis struct {
	Prog  *compiler.Program
	Funcs []*FuncResult // non-synthetic functions, program order

	byName      map[string]*FuncResult
	constGlobal map[int]int64 // global index -> program-wide constant value
	impure      map[int]bool  // func index -> may store a global (transitively)
	hoistable   map[int]bool  // func index -> pure, deterministic, global-free
}

// Result returns the analysis of the named function, nil when absent.
func (an *Analysis) Result(name string) *FuncResult { return an.byName[name] }

// AnalyzeProgram runs the abstract interpreter over every non-synthetic
// function of prog: interval fixpoints with widening/narrowing, loop trip
// bounds, and static cost polynomials composed bottom-up over the call
// graph. The result is deterministic: no map iteration order reaches any
// output.
func AnalyzeProgram(prog *compiler.Program) *Analysis {
	an := &Analysis{
		Prog:        prog,
		byName:      map[string]*FuncResult{},
		constGlobal: constGlobals(prog),
	}
	an.classifyFuncs()
	for _, fn := range prog.Funcs {
		if fn.Synthetic {
			continue
		}
		a := cfa.AnalyzeFunc(prog, fn)
		if a == nil {
			continue
		}
		r := an.analyzeFunc(a)
		an.Funcs = append(an.Funcs, r)
		an.byName[fn.Name] = r
	}
	an.computeCosts()
	return an
}

// constGlobals finds globals whose every store writes the same literal
// (including the synthetic __init initializer); a global with no stores
// holds its zero value forever. These keep their constant value across
// call havoc — any callee store rewrites the same literal.
func constGlobals(prog *compiler.Program) map[int]int64 {
	out := map[int]int64{}
	for gi := range prog.GlobalNames {
		val, stores, konst := int64(0), 0, true
		for pc, ins := range prog.Instrs {
			if ins.Op != compiler.OpStoreG || int(ins.A) != gi {
				continue
			}
			if pc == 0 || prog.Instrs[pc-1].Op != compiler.OpConst {
				konst = false
				break
			}
			v := prog.Consts[prog.Instrs[pc-1].A]
			if stores > 0 && v != val {
				konst = false
				break
			}
			val = v
			stores++
		}
		if konst {
			out[gi] = val
		}
	}
	return out
}

// classifyFuncs computes two call-graph-transitive function properties:
//
//   - impure: the function may store a global, so calls to it havoc the
//     non-constant globals of the caller's abstract state;
//   - hoistable: the function is a pure deterministic computation (no
//     global access, no rand/now/alloc/spawn/out/block), so a call with
//     loop-invariant arguments returns the same value every iteration.
func (an *Analysis) classifyFuncs() {
	prog := an.Prog
	an.impure = map[int]bool{}
	an.hoistable = map[int]bool{}
	// Direct facts per function.
	for _, fn := range prog.Funcs {
		hoist := true
		for pc := fn.Entry; pc < fn.End; pc++ {
			ins := prog.Instrs[pc]
			switch ins.Op {
			case compiler.OpStoreG:
				an.impure[fn.Index] = true
				hoist = false
			case compiler.OpLoadG:
				hoist = false
			case compiler.OpCallB:
				switch compiler.Builtin(ins.A) {
				case compiler.BRand, compiler.BNow, compiler.BAlloc,
					compiler.BSpawn, compiler.BOut, compiler.BBlock:
					hoist = false
				}
			}
		}
		an.hoistable[fn.Index] = hoist
	}
	// Transitive closure over the call graph (name-based; deterministic
	// because the fixpoint result is order-independent).
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.Funcs {
			for _, callee := range prog.CallGraph[fn.Name] {
				cf := prog.FuncNamed(callee)
				if cf == nil {
					continue
				}
				if an.impure[cf.Index] && !an.impure[fn.Index] {
					an.impure[fn.Index] = true
					changed = true
				}
				if !an.hoistable[cf.Index] && an.hoistable[fn.Index] {
					an.hoistable[fn.Index] = false
					changed = true
				}
			}
		}
	}
}

// entryState builds the state at function entry: parameters unknown,
// locals zero (the VM zero-initializes frame slots), globals at their
// program-wide constant value or unknown.
func (an *Analysis) entryState(a *cfa.FuncAnalysis) *state {
	s := &state{vars: make([]Interval, a.NumVars())}
	for i := range s.vars {
		switch {
		case i < a.Fn.NumParams:
			s.vars[i] = Top()
		case i < a.Fn.NumSlots:
			s.vars[i] = Const(0)
		default:
			s.vars[i] = an.globalEntry(i - a.Fn.NumSlots)
		}
	}
	return s
}

func (an *Analysis) globalEntry(gi int) Interval {
	if v, ok := an.constGlobal[gi]; ok {
		return Const(v)
	}
	return Top()
}

// analyzeFunc runs the worklist fixpoint over one function.
func (an *Analysis) analyzeFunc(a *cfa.FuncAnalysis) *FuncResult {
	n := len(a.Blocks)
	r := &FuncResult{A: a, In: make([]*state, n), Facts: make([]blockFacts, n), Bounds: map[int]Bound{}}

	headers := map[int]bool{}
	for _, l := range a.Loops {
		headers[l.Header] = true
	}
	rpo := a.Graph.ReversePostorder()
	rpoIndex := make([]int, n)
	for i, b := range rpo {
		rpoIndex[b] = i
	}

	r.In[a.Graph.Entry] = an.entryState(a)
	visits := make([]int, n)
	inQueue := make([]bool, n)
	queue := []int{a.Graph.Entry}
	inQueue[a.Graph.Entry] = true
	for len(queue) > 0 {
		// Pop the queued block earliest in reverse postorder: the
		// canonical iteration order, and one that makes the fixpoint
		// independent of insertion order.
		best := 0
		for i := 1; i < len(queue); i++ {
			if rpoIndex[queue[i]] < rpoIndex[queue[best]] {
				best = i
			}
		}
		b := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		inQueue[b] = false
		if r.In[b] == nil {
			continue
		}
		out, branch, _ := an.execBlock(a, b, r.In[b], nil)
		for _, e := range an.succEdges(a, b, out, branch) {
			if e.state == nil {
				continue
			}
			widen := headers[e.to] && visits[e.to] >= widenDelay
			merged, changed := joinInto(r.In[e.to], e.state, widen)
			r.In[e.to] = merged
			if changed {
				visits[e.to]++
				if !inQueue[e.to] {
					queue = append(queue, e.to)
					inQueue[e.to] = true
				}
			}
		}
	}

	// Narrowing: recompute block entries from the stabilized states; only
	// the sentinel bounds widening introduced may improve.
	for round := 0; round < narrowRounds; round++ {
		next := make([]*state, n)
		next[a.Graph.Entry] = an.entryState(a)
		for _, b := range rpo {
			if r.In[b] == nil {
				continue
			}
			out, branch, _ := an.execBlock(a, b, r.In[b], nil)
			for _, e := range an.succEdges(a, b, out, branch) {
				if e.state == nil {
					continue
				}
				next[e.to], _ = joinInto(next[e.to], e.state, false)
			}
		}
		for b := 0; b < n; b++ {
			if r.In[b] == nil || next[b] == nil {
				continue
			}
			if headers[b] {
				for i := range r.In[b].vars {
					r.In[b].vars[i] = Narrow(r.In[b].vars[i], next[b].vars[i])
				}
			} else {
				r.In[b] = next[b]
			}
		}
	}

	// Final pass: record per-block facts from the settled states.
	for b := 0; b < n; b++ {
		if r.In[b] == nil {
			continue
		}
		_, branch, facts := an.execBlock(a, b, r.In[b], &blockFacts{})
		facts.Branch = branch
		facts.HasBranch = an.blockEndsInBranch(a, b)
		r.Facts[b] = *facts
	}

	an.inferBounds(r)
	return r
}

func (an *Analysis) blockEndsInBranch(a *cfa.FuncAnalysis, b int) bool {
	last := an.Prog.Instrs[a.Blocks[b].End-1]
	return last.Op == compiler.OpJZ || last.Op == compiler.OpJNZ
}

// edge is one outgoing CFG edge with its refined state (nil = infeasible).
type edge struct {
	to    int
	state *state
}

// succEdges computes the refined outgoing states of block b. Conditional
// edges meet the branch condition into the operand variables; an edge whose
// refinement is contradictory (or whose branch value excludes it) is
// reported infeasible, which is what makes value-level dead code visible.
func (an *Analysis) succEdges(a *cfa.FuncAnalysis, b int, out *state, branch absVal) []edge {
	succs := a.Graph.Succs[b]
	if len(succs) == 0 {
		return nil
	}
	last := an.Prog.Instrs[a.Blocks[b].End-1]
	if last.Op != compiler.OpJZ && last.Op != compiler.OpJNZ {
		edges := make([]edge, len(succs))
		for i, s := range succs {
			st := out
			if i > 0 {
				st = out.clone()
			}
			edges[i] = edge{to: s, state: st}
		}
		return edges
	}
	// Conditional: successor order from BlockSuccessors is
	// [fallthrough, target] for JZ/JNZ. The fallthrough edge is the one
	// NOT taken: JZ falls through when the value is nonzero, JNZ when it
	// is zero.
	target := a.BlockOf(int(last.A))
	var edges []edge
	for _, s := range succs {
		onZero := s == target
		if last.Op == compiler.OpJNZ {
			onZero = s != target
		}
		edges = append(edges, edge{to: s, state: refineEdge(out, branch, !onZero)})
	}
	return edges
}

// refineEdge narrows state for the edge where the branch value is truthy
// (nonzero) or falsy (zero); nil when the edge is infeasible.
func refineEdge(out *state, branch absVal, truthy bool) *state {
	if truthy && branch.iv == Const(0) {
		return nil
	}
	if !truthy && !branch.iv.Contains(0) && !branch.iv.IsBottom() {
		return nil
	}
	st := out.clone()
	apply := func(v absVal, iv Interval) bool {
		if v.varID < 0 {
			return true
		}
		m := Meet(st.vars[v.varID], iv)
		st.vars[v.varID] = m
		return !m.IsBottom()
	}
	if branch.cmp != nil {
		c := branch.cmp
		op := c.op
		if !truthy {
			op = op.Negate()
		}
		rx, ry := Refine(op, c.x.iv, c.y.iv)
		if rx.IsBottom() || ry.IsBottom() {
			return nil
		}
		if !apply(c.x, rx) || !apply(c.y, ry) {
			return nil
		}
	}
	if truthy {
		if !apply(branch, excludeZero(branch.iv)) {
			return nil
		}
	} else {
		if !apply(branch, Const(0)) {
			return nil
		}
	}
	return st
}

// excludeZero trims a zero-valued edge bound off the interval (interior
// zeros are not expressible).
func excludeZero(iv Interval) Interval {
	if iv.Lo == 0 {
		return Range(1, iv.Hi)
	}
	if iv.Hi == 0 {
		return Range(iv.Lo, -1)
	}
	return iv
}

// execBlock abstractly executes block b from entry state in, returning the
// exit state and the value consumed by a terminal conditional jump. When
// facts is non-nil, work()/call sites are recorded into it.
func (an *Analysis) execBlock(a *cfa.FuncAnalysis, b int, in *state, facts *blockFacts) (*state, absVal, *blockFacts) {
	prog := an.Prog
	st := in.clone()
	stack := append([]absVal(nil), st.stack...)
	pop := func() absVal {
		if len(stack) == 0 {
			return topVal()
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	push := func(v absVal) { stack = append(stack, v) }
	// invalidate drops load provenance for var v (or all globals when
	// v == -1) from the pending stack: a store or call havoc means those
	// values no longer mirror the variable.
	invalidate := func(v int) {
		for i := range stack {
			if stack[i].varID < 0 {
				continue
			}
			if stack[i].varID == v || (v == -1 && stack[i].varID >= a.Fn.NumSlots) {
				stack[i].varID = -1
			}
		}
	}
	var branch absVal

	for pc := a.Blocks[b].Start; pc < a.Blocks[b].End; pc++ {
		ins := prog.Instrs[pc]
		switch ins.Op {
		case compiler.OpConst:
			c := prog.Consts[ins.A]
			push(absVal{iv: Const(c), varID: -1, depVar: -1, stable: true})
		case compiler.OpLoadL, compiler.OpLoadG:
			id := int(ins.A)
			if ins.Op == compiler.OpLoadG {
				id = a.GlobalVar(int(ins.A))
			}
			name, _ := a.VarName(id)
			push(absVal{iv: st.vars[id], varID: id, depVar: id, sym: name})
		case compiler.OpStoreL, compiler.OpStoreG:
			id := int(ins.A)
			if ins.Op == compiler.OpStoreG {
				id = a.GlobalVar(int(ins.A))
			}
			val := pop()
			st.vars[id] = val.iv
			invalidate(id)
		case compiler.OpBin:
			y := pop()
			x := pop()
			push(binTransfer(lang.BinaryOp(ins.A), x, y))
		case compiler.OpUn:
			x := pop()
			if ins.A == 0 { // not
				push(notTransfer(x))
			} else { // neg
				nv := absVal{iv: Neg(x.iv), varID: -1, depVar: x.depVar, stable: x.stable}
				if x.sym != "" {
					nv.sym = symCombine("-", "", x.sym)
				}
				push(nv)
			}
		case compiler.OpJump:
			// unconditional terminator
		case compiler.OpJZ, compiler.OpJNZ:
			branch = pop()
		case compiler.OpCall:
			argc := int(ins.B)
			args := make([]absVal, argc)
			for i := argc - 1; i >= 0; i-- {
				args[i] = pop()
			}
			if facts != nil {
				facts.Calls = append(facts.Calls, callSite{PC: pc, Callee: int(ins.A), Args: args})
			}
			if an.impure[int(ins.A)] {
				for gi := range prog.GlobalNames {
					st.vars[a.GlobalVar(gi)] = an.globalEntry(gi)
				}
				invalidate(-1)
			}
			push(topVal())
		case compiler.OpCallB:
			an.builtinTransfer(compiler.Builtin(ins.A), int(ins.B), pc, &stack, facts)
		case compiler.OpRet:
			pop()
		case compiler.OpPop:
			pop()
		case compiler.OpHalt:
			// terminator
		}
	}
	st.stack = stack
	return st, branch, facts
}

func (an *Analysis) builtinTransfer(b compiler.Builtin, argc, pc int, stack *[]absVal, facts *blockFacts) {
	pop := func() absVal {
		s := *stack
		if len(s) == 0 {
			return topVal()
		}
		v := s[len(s)-1]
		*stack = s[:len(s)-1]
		return v
	}
	push := func(v absVal) { *stack = append(*stack, v) }
	switch b {
	case compiler.BWork, compiler.BBlock:
		arg := pop()
		if facts != nil {
			facts.Works = append(facts.Works, workSite{PC: pc, Arg: arg, Blocked: b == compiler.BBlock})
		}
		iv := arg.iv
		if !iv.IsBottom() {
			iv = Interval{max64(0, iv.Lo), max64(0, iv.Hi)}
		}
		push(absVal{iv: iv, varID: -1, depVar: arg.depVar, sym: arg.sym, stable: arg.stable})
	case compiler.BRand:
		n := pop()
		hi := int64(0)
		if n.iv.Hi > 0 {
			hi = decBound(n.iv.Hi)
		}
		push(absVal{iv: Range(0, hi), varID: -1, depVar: -1})
	case compiler.BInput:
		k := pop()
		v := topVal()
		if c, ok := k.iv.ConstValue(); ok {
			v.sym = fmt.Sprintf("input(%d)", c)
			v.stable = true
		}
		push(v)
	case compiler.BNow:
		push(absVal{iv: Range(0, PosInf), varID: -1, depVar: -1})
	case compiler.BAlloc:
		push(topVal())
	case compiler.BOut:
		v := pop()
		v.varID = -1
		push(v)
	case compiler.BAbs:
		x := pop()
		push(absVal{iv: absTransfer(x.iv), varID: -1, depVar: x.depVar, stable: x.stable})
	case compiler.BMin:
		y := pop()
		x := pop()
		push(absVal{iv: Range(min64(x.iv.Lo, y.iv.Lo), min64(x.iv.Hi, y.iv.Hi)), varID: -1, depVar: -1, stable: x.stable && y.stable})
	case compiler.BMax:
		y := pop()
		x := pop()
		push(absVal{iv: Range(max64(x.iv.Lo, y.iv.Lo), max64(x.iv.Hi, y.iv.Hi)), varID: -1, depVar: -1, stable: x.stable && y.stable})
	case compiler.BSpawn:
		for i := 0; i < argc; i++ {
			pop()
		}
		push(topVal())
	default:
		for i := 0; i < argc; i++ {
			pop()
		}
		push(topVal())
	}
}

func absTransfer(iv Interval) Interval {
	switch {
	case iv.IsBottom():
		return iv
	case iv.Lo >= 0:
		return iv
	case iv.Hi <= 0:
		return Neg(iv)
	case iv.Lo == NegInf:
		return Range(0, PosInf)
	}
	return Range(0, max64(-iv.Lo, iv.Hi))
}

// binTransfer is the OpBin transfer function.
func binTransfer(op lang.BinaryOp, x, y absVal) absVal {
	out := absVal{varID: -1, depVar: -1, stable: x.stable && y.stable}
	switch op {
	case lang.BinAdd, lang.BinSub, lang.BinMul, lang.BinDiv, lang.BinMod:
		switch op {
		case lang.BinAdd:
			out.iv = Add(x.iv, y.iv)
		case lang.BinSub:
			out.iv = Sub(x.iv, y.iv)
		case lang.BinMul:
			out.iv = Mul(x.iv, y.iv)
		case lang.BinDiv:
			out.iv = Div(x.iv, y.iv)
		case lang.BinMod:
			out.iv = Mod(x.iv, y.iv)
		}
		// Single-variable provenance survives combination with
		// constants or run-stable values.
		_, xc := x.iv.ConstValue()
		_, yc := y.iv.ConstValue()
		if x.depVar >= 0 && (yc || y.stable || y.depVar == x.depVar) {
			out.depVar = x.depVar
		} else if y.depVar >= 0 && (xc || x.stable) {
			out.depVar = y.depVar
		}
		out.sym = symCombine(opSym(op), symOf(x), symOf(y))
	case lang.BinEq, lang.BinNeq, lang.BinLt, lang.BinLe, lang.BinGt, lang.BinGe:
		cop := cmpOpFor(op)
		out.iv = Cmp(cop, x.iv, y.iv)
		out.cmp = &cmpExpr{op: cop, x: x, y: y}
	default:
		// BinAnd/BinOr are lowered to jumps; anything else is Top.
		out.iv = Top()
	}
	return out
}

func notTransfer(x absVal) absVal {
	out := absVal{iv: bool01(), varID: -1, depVar: -1, stable: x.stable}
	switch {
	case x.iv == Const(0):
		out.iv = Const(1)
	case !x.iv.Contains(0):
		out.iv = Const(0)
	}
	if x.cmp != nil {
		out.cmp = &cmpExpr{op: x.cmp.op.Negate(), x: x.cmp.x, y: x.cmp.y}
	} else if x.varID >= 0 {
		zero := absVal{iv: Const(0), varID: -1, depVar: -1, stable: true}
		out.cmp = &cmpExpr{op: CmpEq, x: x, y: zero}
	}
	return out
}

func cmpOpFor(op lang.BinaryOp) CmpOp {
	switch op {
	case lang.BinEq:
		return CmpEq
	case lang.BinNeq:
		return CmpNeq
	case lang.BinLt:
		return CmpLt
	case lang.BinLe:
		return CmpLe
	case lang.BinGt:
		return CmpGt
	}
	return CmpGe
}

func opSym(op lang.BinaryOp) string {
	switch op {
	case lang.BinAdd:
		return "+"
	case lang.BinSub:
		return "-"
	case lang.BinMul:
		return "*"
	case lang.BinDiv:
		return "/"
	case lang.BinMod:
		return "%"
	}
	return "?"
}

// symOf renders an operand for symbolic display: its symbol, or its
// constant value.
func symOf(v absVal) string {
	if v.sym != "" {
		return v.sym
	}
	if c, ok := v.iv.ConstValue(); ok {
		return fmt.Sprint(c)
	}
	return ""
}

// symCombine builds a compact symbolic form, or "" when either side is
// unknown or the result grows unwieldy.
func symCombine(op, a, b string) string {
	if op == "-" && a == "" && b != "" { // unary minus
		if len(b) < 20 {
			return "-" + b
		}
		return ""
	}
	if a == "" || b == "" {
		return ""
	}
	s := a + op + b
	if len(s) > 24 {
		return ""
	}
	return s
}
