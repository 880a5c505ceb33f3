package lang

// Node is implemented by every AST node.
type Node interface {
	NodePos() Pos
}

// Decl is a top-level declaration: a global variable or a function.
type Decl interface {
	Node
	declNode()
}

// Stmt is a statement.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is an expression.
type Expr interface {
	Node
	exprNode()
}

// File is a parsed source file.
type File struct {
	Path  string
	Decls []Decl
}

// NodePos returns the position of the file's first declaration, or a
// position naming only the file if it is empty.
func (f *File) NodePos() Pos {
	if len(f.Decls) > 0 {
		return f.Decls[0].NodePos()
	}
	return Pos{File: f.Path, Line: 1, Col: 1}
}

// Globals returns the file's global variable declarations in order.
func (f *File) Globals() []*VarDecl {
	var gs []*VarDecl
	for _, d := range f.Decls {
		if v, ok := d.(*VarDecl); ok {
			gs = append(gs, v)
		}
	}
	return gs
}

// Funcs returns the file's function declarations in order.
func (f *File) Funcs() []*FuncDecl {
	var fs []*FuncDecl
	for _, d := range f.Decls {
		if fn, ok := d.(*FuncDecl); ok {
			fs = append(fs, fn)
		}
	}
	return fs
}

// Func returns the function with the given name, or nil.
func (f *File) Func(name string) *FuncDecl {
	for _, d := range f.Decls {
		if fn, ok := d.(*FuncDecl); ok && fn.Name == name {
			return fn
		}
	}
	return nil
}

// VarDecl declares a variable. At top level it is a global; inside a block it
// is a local (wrapped in a DeclStmt).
type VarDecl struct {
	Name string
	Init Expr // may be nil: defaults to 0
	Pos  Pos
}

func (d *VarDecl) NodePos() Pos { return d.Pos }
func (d *VarDecl) declNode()    {}

// FuncDecl declares a function. Library marks an "external" function whose
// code lives outside the profiled text section (the paper's dynamic-library
// case: gprof records no PC samples there).
type FuncDecl struct {
	Name    string
	Params  []Param
	Body    *BlockStmt
	Library bool
	Pos     Pos
}

// Param is a function parameter.
type Param struct {
	Name string
	Pos  Pos
}

func (d *FuncDecl) NodePos() Pos { return d.Pos }
func (d *FuncDecl) declNode()    {}

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	Stmts []Stmt
	Pos   Pos
}

func (s *BlockStmt) NodePos() Pos { return s.Pos }
func (s *BlockStmt) stmtNode()    {}

// DeclStmt is a local variable declaration statement.
type DeclStmt struct {
	Decl *VarDecl
}

func (s *DeclStmt) NodePos() Pos { return s.Decl.Pos }
func (s *DeclStmt) stmtNode()    {}

// AssignOp is the operator of an assignment statement.
type AssignOp int

// Assignment operators.
const (
	AssignSet AssignOp = iota // =
	AssignAdd                 // +=
	AssignSub                 // -=
	AssignMul                 // *=
	AssignDiv                 // /=
	AssignMod                 // %=
)

func (op AssignOp) String() string {
	switch op {
	case AssignSet:
		return "="
	case AssignAdd:
		return "+="
	case AssignSub:
		return "-="
	case AssignMul:
		return "*="
	case AssignDiv:
		return "/="
	case AssignMod:
		return "%="
	}
	return "?="
}

// AssignStmt assigns to a named variable: x = e, x += e, x++ (as x += 1).
type AssignStmt struct {
	Name  string
	Op    AssignOp
	Value Expr
	Pos   Pos
}

func (s *AssignStmt) NodePos() Pos { return s.Pos }
func (s *AssignStmt) stmtNode()    {}

// IfStmt is a conditional with an optional else branch.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else Stmt // *BlockStmt, *IfStmt, or nil
	Pos  Pos
}

func (s *IfStmt) NodePos() Pos { return s.Pos }
func (s *IfStmt) stmtNode()    {}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body *BlockStmt
	Pos  Pos
}

func (s *WhileStmt) NodePos() Pos { return s.Pos }
func (s *WhileStmt) stmtNode()    {}

// ForStmt is a C-style for loop. Init and Post may be nil; Cond may be nil
// (infinite loop).
type ForStmt struct {
	Init Stmt // *DeclStmt or *AssignStmt, or nil
	Cond Expr
	Post Stmt // *AssignStmt or nil
	Body *BlockStmt
	Pos  Pos
}

func (s *ForStmt) NodePos() Pos { return s.Pos }
func (s *ForStmt) stmtNode()    {}

// ReturnStmt returns from the enclosing function, optionally with a value.
type ReturnStmt struct {
	Value Expr // may be nil (returns 0)
	Pos   Pos
}

func (s *ReturnStmt) NodePos() Pos { return s.Pos }
func (s *ReturnStmt) stmtNode()    {}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

func (s *BreakStmt) NodePos() Pos { return s.Pos }
func (s *BreakStmt) stmtNode()    {}

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

func (s *ContinueStmt) NodePos() Pos { return s.Pos }
func (s *ContinueStmt) stmtNode()    {}

// ExprStmt evaluates an expression for effect (typically a call).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

func (s *ExprStmt) NodePos() Pos { return s.Pos }
func (s *ExprStmt) stmtNode()    {}

// NumberLit is an integer literal.
type NumberLit struct {
	Value int64
	Pos   Pos
}

func (e *NumberLit) NodePos() Pos { return e.Pos }
func (e *NumberLit) exprNode()    {}

// BoolLit is true or false (evaluating to 1 or 0).
type BoolLit struct {
	Value bool
	Pos   Pos
}

func (e *BoolLit) NodePos() Pos { return e.Pos }
func (e *BoolLit) exprNode()    {}

// StringLit is a string literal; used only as an argument to builtins such as
// spawn.
type StringLit struct {
	Value string
	Pos   Pos
}

func (e *StringLit) NodePos() Pos { return e.Pos }
func (e *StringLit) exprNode()    {}

// Ident is a reference to a named variable.
type Ident struct {
	Name string
	Pos  Pos
}

func (e *Ident) NodePos() Pos { return e.Pos }
func (e *Ident) exprNode()    {}

// CallExpr calls a function or builtin by name.
type CallExpr struct {
	Name string
	Args []Expr
	Pos  Pos
}

func (e *CallExpr) NodePos() Pos { return e.Pos }
func (e *CallExpr) exprNode()    {}

// UnaryOp is a unary operator.
type UnaryOp int

// Unary operators.
const (
	UnaryNot UnaryOp = iota // !
	UnaryNeg                // -
)

func (op UnaryOp) String() string {
	if op == UnaryNot {
		return "!"
	}
	return "-"
}

// UnaryExpr applies a unary operator.
type UnaryExpr struct {
	Op  UnaryOp
	X   Expr
	Pos Pos
}

func (e *UnaryExpr) NodePos() Pos { return e.Pos }
func (e *UnaryExpr) exprNode()    {}

// BinaryOp is a binary operator.
type BinaryOp int

// Binary operators.
const (
	BinAdd BinaryOp = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinEq
	BinNeq
	BinLt
	BinLe
	BinGt
	BinGe
	BinAnd // && (short-circuit)
	BinOr  // || (short-circuit)
)

var binNames = [...]string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}

func (op BinaryOp) String() string {
	if int(op) < len(binNames) {
		return binNames[op]
	}
	return "?"
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	X, Y Expr
	Pos  Pos
}

func (e *BinaryExpr) NodePos() Pos { return e.Pos }
func (e *BinaryExpr) exprNode()    {}

// Walk traverses the AST rooted at n in depth-first order, calling fn for
// each node. If fn returns false the node's children are skipped.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch x := n.(type) {
	case *File:
		for _, d := range x.Decls {
			Walk(d, fn)
		}
	case *VarDecl:
		if x.Init != nil {
			Walk(x.Init, fn)
		}
	case *FuncDecl:
		Walk(x.Body, fn)
	case *BlockStmt:
		for _, s := range x.Stmts {
			Walk(s, fn)
		}
	case *DeclStmt:
		Walk(x.Decl, fn)
	case *AssignStmt:
		Walk(x.Value, fn)
	case *IfStmt:
		Walk(x.Cond, fn)
		Walk(x.Then, fn)
		if x.Else != nil {
			Walk(x.Else, fn)
		}
	case *WhileStmt:
		Walk(x.Cond, fn)
		Walk(x.Body, fn)
	case *ForStmt:
		if x.Init != nil {
			Walk(x.Init, fn)
		}
		if x.Cond != nil {
			Walk(x.Cond, fn)
		}
		if x.Post != nil {
			Walk(x.Post, fn)
		}
		Walk(x.Body, fn)
	case *ReturnStmt:
		if x.Value != nil {
			Walk(x.Value, fn)
		}
	case *ExprStmt:
		Walk(x.X, fn)
	case *UnaryExpr:
		Walk(x.X, fn)
	case *BinaryExpr:
		Walk(x.X, fn)
		Walk(x.Y, fn)
	case *CallExpr:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case *NumberLit, *BoolLit, *StringLit, *Ident, *BreakStmt, *ContinueStmt:
		// leaves
	}
}
