package compiler

import (
	"fmt"
	"strings"

	"vprof/internal/debuginfo"
	"vprof/internal/lang"
)

// A CompileError reports a semantic error at a source position.
type CompileError struct {
	Pos lang.Pos
	Msg string
}

func (e *CompileError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos lang.Pos, format string, args ...any) error {
	return &CompileError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Compile lowers a parsed file to an executable Program with debug info.
// The file must define a zero-parameter function named main.
func Compile(f *lang.File) (*Program, error) {
	c := &state{
		prog: &Program{
			File:        f.Path,
			funcIndex:   map[string]int{},
			globalIndex: map[string]int{},
			CallGraph:   map[string][]string{},
		},
		constIndex: map[int64]int{},
	}

	for _, g := range f.Globals() {
		if _, dup := c.prog.globalIndex[g.Name]; dup {
			return nil, errf(g.Pos, "duplicate global %q", g.Name)
		}
		c.prog.globalIndex[g.Name] = len(c.prog.GlobalNames)
		c.prog.GlobalNames = append(c.prog.GlobalNames, g.Name)
	}
	for _, fn := range f.Funcs() {
		if _, dup := c.prog.funcIndex[fn.Name]; dup {
			return nil, errf(fn.Pos, "duplicate function %q", fn.Name)
		}
		if IsBuiltinName(fn.Name) {
			return nil, errf(fn.Pos, "function %q shadows a builtin", fn.Name)
		}
		info := &FuncInfo{
			Name:      fn.Name,
			Index:     len(c.prog.Funcs),
			NumParams: len(fn.Params),
			Library:   fn.Library,
			DeclLine:  fn.Pos.Line,
		}
		c.prog.funcIndex[fn.Name] = info.Index
		c.prog.Funcs = append(c.prog.Funcs, info)
	}
	mainIdx, ok := c.prog.funcIndex["main"]
	if !ok {
		return nil, errf(lang.Pos{File: f.Path, Line: 1, Col: 1}, "no main function")
	}
	if c.prog.Funcs[mainIdx].NumParams != 0 {
		return nil, errf(f.Func("main").Pos, "main must take no parameters")
	}
	c.prog.MainIndex = mainIdx

	// Compile user functions in declaration order.
	for _, fn := range f.Funcs() {
		fc := &funcCompiler{state: c, info: c.prog.Funcs[c.prog.funcIndex[fn.Name]], decl: fn}
		if err := fc.compile(); err != nil {
			return nil, err
		}
		c.funcMeta = append(c.funcMeta, fc.meta())
	}

	// Synthesize the __init entry shim: run global initializers, call
	// main, halt.
	if err := c.emitInit(f); err != nil {
		return nil, err
	}

	c.prog.PointerVars = InferPointers(f)
	buildDebugInfo(c)
	rp, err := compileRegister(c.prog)
	if err != nil {
		return nil, err
	}
	c.prog.Reg = rp
	return c.prog, nil
}

// state carries shared compilation state.
type state struct {
	prog       *Program
	constIndex map[int64]int
	funcMeta   []funcDebugMeta
}

func (c *state) constIdx(v int64) int32 {
	if i, ok := c.constIndex[v]; ok {
		return int32(i)
	}
	i := len(c.prog.Consts)
	c.prog.Consts = append(c.prog.Consts, v)
	c.constIndex[v] = i
	return int32(i)
}

func (c *state) emit(op Op, a, b int32, line int) int {
	c.prog.Instrs = append(c.prog.Instrs, Instr{Op: op, A: a, B: b, Line: int32(line)})
	return len(c.prog.Instrs) - 1
}

func (c *state) patch(pc int, target int) {
	c.prog.Instrs[pc].A = int32(target)
}

func (c *state) here() int { return len(c.prog.Instrs) }

// recordCallee appends callee to caller's call-graph edge list if new.
func (c *state) recordCallee(caller, callee string) {
	for _, e := range c.prog.CallGraph[caller] {
		if e == callee {
			return
		}
	}
	c.prog.CallGraph[caller] = append(c.prog.CallGraph[caller], callee)
}

func (c *state) emitInit(f *lang.File) error {
	info := &FuncInfo{
		Name:      "__init",
		Index:     len(c.prog.Funcs),
		Synthetic: true,
	}
	c.prog.funcIndex["__init"] = info.Index
	c.prog.Funcs = append(c.prog.Funcs, info)
	c.prog.EntryPC = c.here()
	info.Entry = c.here()

	fc := &funcCompiler{state: c, info: info}
	fc.pushScope()
	for _, g := range f.Globals() {
		gi := c.prog.globalIndex[g.Name]
		if g.Init != nil {
			if err := fc.expr(g.Init); err != nil {
				return err
			}
		} else {
			c.emit(OpConst, c.constIdx(0), 0, g.Pos.Line)
		}
		c.emit(OpStoreG, int32(gi), 0, g.Pos.Line)
	}
	line := 0
	if m := f.Func("main"); m != nil {
		line = m.Pos.Line
	}
	c.emit(OpCall, int32(c.prog.MainIndex), 0, line)
	c.emit(OpPop, 0, 0, line)
	c.emit(OpHalt, 0, 0, line)
	info.End = c.here()
	info.NumSlots = fc.nextSlot
	c.funcMeta = append(c.funcMeta, fc.meta())
	c.recordCallee("__init", "main")
	return nil
}

// funcDebugMeta is per-function bookkeeping consumed by debug-info emission.
type funcDebugMeta struct {
	fn        *FuncInfo
	slotDecl  []int    // slot -> PC at which the variable becomes live
	slotEnd   []int    // slot -> PC at which its scope ends (-1: function end)
	slotLine  []int    // slot -> declaration line
	slotNames []string // slot -> name
	callPCs   []int    // PCs of OpCall instructions within the function
}

// funcCompiler compiles one function body.
type funcCompiler struct {
	*state
	info *FuncInfo
	decl *lang.FuncDecl

	scopes    []map[string]int
	nextSlot  int
	slotDecl  []int
	slotEnd   []int
	slotLine  []int
	slotNames []string
	callPCs   []int
	loops     []*loopCtx
}

type loopCtx struct {
	breakPCs []int // JUMPs to patch to loop end
	contPC   int   // PC to jump to on continue (condition or post)
	contPCs  []int // JUMPs to patch when contPC is not yet known
}

func (fc *funcCompiler) meta() funcDebugMeta {
	return funcDebugMeta{
		fn:        fc.info,
		slotDecl:  fc.slotDecl,
		slotEnd:   fc.slotEnd,
		slotLine:  fc.slotLine,
		slotNames: fc.slotNames,
		callPCs:   fc.callPCs,
	}
}

func (fc *funcCompiler) pushScope() { fc.scopes = append(fc.scopes, map[string]int{}) }

// popScope closes the innermost scope, recording the end-of-liveness PC for
// every variable declared in it (DWARF scopes a block variable to its
// lexical block, not the whole function).
func (fc *funcCompiler) popScope() {
	scope := fc.scopes[len(fc.scopes)-1]
	for _, slot := range scope {
		fc.slotEnd[slot] = fc.here()
	}
	fc.scopes = fc.scopes[:len(fc.scopes)-1]
}

// declare allocates a fresh slot for name in the innermost scope.
func (fc *funcCompiler) declare(name string, declPC, line int) (int, error) {
	scope := fc.scopes[len(fc.scopes)-1]
	if _, dup := scope[name]; dup {
		return 0, errf(lang.Pos{File: fc.prog.File, Line: line}, "duplicate variable %q in scope", name)
	}
	slot := fc.nextSlot
	fc.nextSlot++
	scope[name] = slot
	fc.slotDecl = append(fc.slotDecl, declPC)
	fc.slotEnd = append(fc.slotEnd, -1)
	fc.slotLine = append(fc.slotLine, line)
	fc.slotNames = append(fc.slotNames, name)
	return slot, nil
}

// lookupLocal resolves name to a slot, innermost scope first.
func (fc *funcCompiler) lookupLocal(name string) (int, bool) {
	for i := len(fc.scopes) - 1; i >= 0; i-- {
		if s, ok := fc.scopes[i][name]; ok {
			return s, true
		}
	}
	return 0, false
}

func (fc *funcCompiler) compile() error {
	fc.info.Entry = fc.here()
	fc.pushScope()
	for _, p := range fc.decl.Params {
		if _, err := fc.declare(p.Name, fc.info.Entry, p.Pos.Line); err != nil {
			return err
		}
	}
	if err := fc.block(fc.decl.Body); err != nil {
		return err
	}
	// Implicit "return 0" if control can fall off the end.
	endLine := fc.decl.Pos.Line
	fc.emit(OpConst, fc.constIdx(0), 0, endLine)
	fc.emit(OpRet, 0, 0, endLine)
	fc.popScope()
	fc.info.End = fc.here()
	fc.info.NumSlots = fc.nextSlot
	fc.info.SlotNames = fc.slotNames
	fc.info.SlotLines = fc.slotLine
	return nil
}

func (fc *funcCompiler) block(b *lang.BlockStmt) error {
	fc.pushScope()
	defer fc.popScope()
	for _, s := range b.Stmts {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fc *funcCompiler) stmt(s lang.Stmt) error {
	switch st := s.(type) {
	case *lang.BlockStmt:
		return fc.block(st)
	case *lang.DeclStmt:
		d := st.Decl
		if d.Init != nil {
			if err := fc.expr(d.Init); err != nil {
				return err
			}
		} else {
			fc.emit(OpConst, fc.constIdx(0), 0, d.Pos.Line)
		}
		// The variable becomes live at the StoreL instruction.
		slot, err := fc.declare(d.Name, fc.here(), d.Pos.Line)
		if err != nil {
			return err
		}
		fc.emit(OpStoreL, int32(slot), 0, d.Pos.Line)
		return nil
	case *lang.AssignStmt:
		return fc.assign(st)
	case *lang.IfStmt:
		return fc.ifStmt(st)
	case *lang.WhileStmt:
		return fc.whileStmt(st)
	case *lang.ForStmt:
		return fc.forStmt(st)
	case *lang.ReturnStmt:
		if st.Value != nil {
			if err := fc.expr(st.Value); err != nil {
				return err
			}
		} else {
			fc.emit(OpConst, fc.constIdx(0), 0, st.Pos.Line)
		}
		fc.emit(OpRet, 0, 0, st.Pos.Line)
		return nil
	case *lang.BreakStmt:
		if len(fc.loops) == 0 {
			return errf(st.Pos, "break outside loop")
		}
		l := fc.loops[len(fc.loops)-1]
		l.breakPCs = append(l.breakPCs, fc.emit(OpJump, -1, 0, st.Pos.Line))
		return nil
	case *lang.ContinueStmt:
		if len(fc.loops) == 0 {
			return errf(st.Pos, "continue outside loop")
		}
		l := fc.loops[len(fc.loops)-1]
		if l.contPC >= 0 {
			fc.emit(OpJump, int32(l.contPC), 0, st.Pos.Line)
		} else {
			l.contPCs = append(l.contPCs, fc.emit(OpJump, -1, 0, st.Pos.Line))
		}
		return nil
	case *lang.ExprStmt:
		if err := fc.expr(st.X); err != nil {
			return err
		}
		fc.emit(OpPop, 0, 0, st.Pos.Line)
		return nil
	}
	return errf(s.NodePos(), "unsupported statement %T", s)
}

// binOpFor maps compound-assignment operators to binary operators.
var compoundBin = map[lang.AssignOp]lang.BinaryOp{
	lang.AssignAdd: lang.BinAdd,
	lang.AssignSub: lang.BinSub,
	lang.AssignMul: lang.BinMul,
	lang.AssignDiv: lang.BinDiv,
	lang.AssignMod: lang.BinMod,
}

func (fc *funcCompiler) assign(st *lang.AssignStmt) error {
	slot, isLocal := fc.lookupLocal(st.Name)
	var gidx int
	isGlobal := false
	if !isLocal {
		if gi, ok := fc.prog.globalIndex[st.Name]; ok {
			gidx, isGlobal = gi, true
		}
	}
	if !isLocal && !isGlobal {
		return errf(st.Pos, "assignment to undeclared variable %q", st.Name)
	}
	if st.Op != lang.AssignSet {
		if isLocal {
			fc.emit(OpLoadL, int32(slot), 0, st.Pos.Line)
		} else {
			fc.emit(OpLoadG, int32(gidx), 0, st.Pos.Line)
		}
	}
	if err := fc.expr(st.Value); err != nil {
		return err
	}
	if st.Op != lang.AssignSet {
		fc.emit(OpBin, int32(compoundBin[st.Op]), 0, st.Pos.Line)
	}
	if isLocal {
		fc.emit(OpStoreL, int32(slot), 0, st.Pos.Line)
	} else {
		fc.emit(OpStoreG, int32(gidx), 0, st.Pos.Line)
	}
	return nil
}

func (fc *funcCompiler) ifStmt(st *lang.IfStmt) error {
	if err := fc.expr(st.Cond); err != nil {
		return err
	}
	jz := fc.emit(OpJZ, -1, 0, st.Pos.Line)
	if err := fc.block(st.Then); err != nil {
		return err
	}
	if st.Else == nil {
		fc.patch(jz, fc.here())
		return nil
	}
	jend := fc.emit(OpJump, -1, 0, st.Pos.Line)
	fc.patch(jz, fc.here())
	if err := fc.stmt(st.Else); err != nil {
		return err
	}
	fc.patch(jend, fc.here())
	return nil
}

func (fc *funcCompiler) whileStmt(st *lang.WhileStmt) error {
	condPC := fc.here()
	if err := fc.expr(st.Cond); err != nil {
		return err
	}
	jz := fc.emit(OpJZ, -1, 0, st.Pos.Line)
	l := &loopCtx{contPC: condPC}
	fc.loops = append(fc.loops, l)
	if err := fc.block(st.Body); err != nil {
		return err
	}
	fc.loops = fc.loops[:len(fc.loops)-1]
	fc.emit(OpJump, int32(condPC), 0, st.Pos.Line)
	end := fc.here()
	fc.patch(jz, end)
	for _, pc := range l.breakPCs {
		fc.patch(pc, end)
	}
	return nil
}

func (fc *funcCompiler) forStmt(st *lang.ForStmt) error {
	fc.pushScope() // for-clause scope (init variable)
	defer fc.popScope()
	if st.Init != nil {
		if err := fc.stmt(st.Init); err != nil {
			return err
		}
	}
	condPC := fc.here()
	var jz int = -1
	if st.Cond != nil {
		if err := fc.expr(st.Cond); err != nil {
			return err
		}
		jz = fc.emit(OpJZ, -1, 0, st.Pos.Line)
	}
	// continue jumps to the post statement, whose PC is unknown until the
	// body has been compiled.
	l := &loopCtx{contPC: -1}
	fc.loops = append(fc.loops, l)
	if err := fc.block(st.Body); err != nil {
		return err
	}
	fc.loops = fc.loops[:len(fc.loops)-1]
	postPC := fc.here()
	if st.Post != nil {
		if err := fc.stmt(st.Post); err != nil {
			return err
		}
	}
	fc.emit(OpJump, int32(condPC), 0, st.Pos.Line)
	end := fc.here()
	if jz >= 0 {
		fc.patch(jz, end)
	}
	for _, pc := range l.breakPCs {
		fc.patch(pc, end)
	}
	for _, pc := range l.contPCs {
		fc.patch(pc, postPC)
	}
	return nil
}

func (fc *funcCompiler) expr(e lang.Expr) error {
	switch x := e.(type) {
	case *lang.NumberLit:
		fc.emit(OpConst, fc.constIdx(x.Value), 0, x.Pos.Line)
		return nil
	case *lang.BoolLit:
		v := int64(0)
		if x.Value {
			v = 1
		}
		fc.emit(OpConst, fc.constIdx(v), 0, x.Pos.Line)
		return nil
	case *lang.StringLit:
		return errf(x.Pos, "string literal only allowed as the first argument of spawn")
	case *lang.Ident:
		if slot, ok := fc.lookupLocal(x.Name); ok {
			fc.emit(OpLoadL, int32(slot), 0, x.Pos.Line)
			return nil
		}
		if gi, ok := fc.prog.globalIndex[x.Name]; ok {
			fc.emit(OpLoadG, int32(gi), 0, x.Pos.Line)
			return nil
		}
		return errf(x.Pos, "undeclared variable %q", x.Name)
	case *lang.UnaryExpr:
		if err := fc.expr(x.X); err != nil {
			return err
		}
		fc.emit(OpUn, int32(x.Op), 0, x.Pos.Line)
		return nil
	case *lang.BinaryExpr:
		if x.Op == lang.BinAnd || x.Op == lang.BinOr {
			return fc.shortCircuit(x)
		}
		if err := fc.expr(x.X); err != nil {
			return err
		}
		if err := fc.expr(x.Y); err != nil {
			return err
		}
		fc.emit(OpBin, int32(x.Op), 0, x.Pos.Line)
		return nil
	case *lang.CallExpr:
		return fc.call(x)
	}
	return errf(e.NodePos(), "unsupported expression %T", e)
}

// shortCircuit compiles && and || with jump-based evaluation, producing a
// normalized 0/1 result.
func (fc *funcCompiler) shortCircuit(x *lang.BinaryExpr) error {
	line := x.Pos.Line
	if err := fc.expr(x.X); err != nil {
		return err
	}
	var early int
	if x.Op == lang.BinAnd {
		early = fc.emit(OpJZ, -1, 0, line)
	} else {
		early = fc.emit(OpJNZ, -1, 0, line)
	}
	if err := fc.expr(x.Y); err != nil {
		return err
	}
	var second int
	if x.Op == lang.BinAnd {
		second = fc.emit(OpJZ, -1, 0, line)
		fc.emit(OpConst, fc.constIdx(1), 0, line)
	} else {
		second = fc.emit(OpJNZ, -1, 0, line)
		fc.emit(OpConst, fc.constIdx(0), 0, line)
	}
	jend := fc.emit(OpJump, -1, 0, line)
	shortPC := fc.here()
	if x.Op == lang.BinAnd {
		fc.emit(OpConst, fc.constIdx(0), 0, line)
	} else {
		fc.emit(OpConst, fc.constIdx(1), 0, line)
	}
	fc.patch(early, shortPC)
	fc.patch(second, shortPC)
	fc.patch(jend, fc.here())
	return nil
}

func (fc *funcCompiler) call(x *lang.CallExpr) error {
	// User function?
	if fi, ok := fc.prog.funcIndex[x.Name]; ok {
		fn := fc.prog.Funcs[fi]
		if len(x.Args) != fn.NumParams {
			return errf(x.Pos, "call to %s with %d args, want %d", x.Name, len(x.Args), fn.NumParams)
		}
		for _, a := range x.Args {
			if err := fc.expr(a); err != nil {
				return err
			}
		}
		pc := fc.emit(OpCall, int32(fi), int32(len(x.Args)), x.Pos.Line)
		fc.callPCs = append(fc.callPCs, pc)
		fc.recordCallee(fc.info.Name, x.Name)
		return nil
	}
	b, ok := builtinNames[x.Name]
	if !ok {
		return errf(x.Pos, "call to undefined function %q", x.Name)
	}
	if b == BSpawn {
		return fc.spawn(x)
	}
	if want := builtinArity[b]; len(x.Args) != want {
		return errf(x.Pos, "%s takes %d args, got %d", x.Name, want, len(x.Args))
	}
	for _, a := range x.Args {
		if err := fc.expr(a); err != nil {
			return err
		}
	}
	fc.emit(OpCallB, int32(b), int32(len(x.Args)), x.Pos.Line)
	return nil
}

func (fc *funcCompiler) spawn(x *lang.CallExpr) error {
	if len(x.Args) < 1 {
		return errf(x.Pos, "spawn requires a function name")
	}
	name, ok := x.Args[0].(*lang.StringLit)
	if !ok {
		return errf(x.Args[0].NodePos(), `spawn's first argument must be a string literal naming a function`)
	}
	fi, ok := fc.prog.funcIndex[name.Value]
	if !ok {
		return errf(name.Pos, "spawn of undefined function %q", name.Value)
	}
	fn := fc.prog.Funcs[fi]
	if len(x.Args)-1 != fn.NumParams {
		return errf(x.Pos, "spawn %s with %d args, want %d", name.Value, len(x.Args)-1, fn.NumParams)
	}
	fc.emit(OpConst, fc.constIdx(int64(fi)), 0, name.Pos.Line)
	for _, a := range x.Args[1:] {
		if err := fc.expr(a); err != nil {
			return err
		}
	}
	fc.emit(OpCallB, int32(BSpawn), int32(len(x.Args)), x.Pos.Line)
	fc.recordCallee(fc.info.Name, name.Value)
	return nil
}

// InferPointers runs a small flow-insensitive fixpoint analysis marking
// variables that may hold pointers (results of alloc()). Keys are
// "func\x00var" or "#global\x00var"; function returns use "ret\x00func".
func InferPointers(f *lang.File) map[string]bool {
	ptr := map[string]bool{}
	// edges[dst] = sources that flow into dst.
	edges := map[string][]string{}
	addEdge := func(dst, src string) { edges[dst] = append(edges[dst], src) }

	globals := map[string]bool{}
	for _, g := range f.Globals() {
		globals[g.Name] = true
	}
	key := func(fn *lang.FuncDecl, name string) string {
		if fn != nil {
			isParam := false
			for _, p := range fn.Params {
				if p.Name == name {
					isParam = true
				}
			}
			if !isParam && globals[name] && !declaredLocally(fn, name) {
				return debuginfo.GlobalScope + "\x00" + name
			}
			return fn.Name + "\x00" + name
		}
		return debuginfo.GlobalScope + "\x00" + name
	}

	// exprSource returns the flow key of an expression's value, "" if it
	// cannot carry a pointer, or "ALLOC" for alloc() calls.
	var exprSource func(fn *lang.FuncDecl, e lang.Expr) string
	exprSource = func(fn *lang.FuncDecl, e lang.Expr) string {
		switch x := e.(type) {
		case *lang.Ident:
			return key(fn, x.Name)
		case *lang.CallExpr:
			if x.Name == "alloc" {
				return "ALLOC"
			}
			if f.Func(x.Name) != nil {
				return "ret\x00" + x.Name
			}
			return ""
		default:
			return ""
		}
	}
	connect := func(dst string, src string) {
		switch src {
		case "":
		case "ALLOC":
			ptr[dst] = true
		default:
			addEdge(dst, src)
		}
	}

	for _, fn := range f.Funcs() {
		fn := fn
		lang.Walk(fn.Body, func(n lang.Node) bool {
			switch x := n.(type) {
			case *lang.DeclStmt:
				if x.Decl.Init != nil {
					connect(key(fn, x.Decl.Name), exprSource(fn, x.Decl.Init))
				}
			case *lang.AssignStmt:
				if x.Op == lang.AssignSet {
					connect(key(fn, x.Name), exprSource(fn, x.Value))
				}
			case *lang.ReturnStmt:
				if x.Value != nil {
					connect("ret\x00"+fn.Name, exprSource(fn, x.Value))
				}
			case *lang.CallExpr:
				callee := f.Func(x.Name)
				if callee != nil {
					for i, a := range x.Args {
						if i < len(callee.Params) {
							connect(key(callee, callee.Params[i].Name), exprSource(fn, a))
						}
					}
				}
			}
			return true
		})
	}
	for _, g := range f.Globals() {
		if g.Init != nil {
			connect(debuginfo.GlobalScope+"\x00"+g.Name, exprSource(nil, g.Init))
		}
	}

	// Fixpoint propagation.
	for changed := true; changed; {
		changed = false
		for dst, srcs := range edges {
			if ptr[dst] {
				continue
			}
			for _, s := range srcs {
				if ptr[s] {
					ptr[dst] = true
					changed = true
					break
				}
			}
		}
	}
	// Drop synthetic "ret" keys.
	out := map[string]bool{}
	for k, v := range ptr {
		if v && !strings.HasPrefix(k, "ret\x00") {
			out[k] = true
		}
	}
	return out
}

// declaredLocally reports whether name is declared as a local anywhere in fn.
func declaredLocally(fn *lang.FuncDecl, name string) bool {
	found := false
	lang.Walk(fn.Body, func(n lang.Node) bool {
		if d, ok := n.(*lang.DeclStmt); ok && d.Decl.Name == name {
			found = true
		}
		return !found
	})
	return found
}
