// Package schema implements vProf's schema generator (paper §3.1): the
// static analysis — an LLVM pass in the paper, an IR-level control/data-flow
// pass here (package cfa) — that decides which program variables to monitor
// during profiling, and the binary static analysis (paper §3.2) that
// translates the schema into runtime variable metadata using debug
// information.
//
// The selection rules are the paper's:
//
//   - every global variable (cheap to monitor, reachable from any context);
//   - loop induction variables (assigned inside a loop and read by the
//     loop's exit condition — detected on the compiled IR via dominator
//     analysis and natural-loop detection);
//   - every variable appearing in a branch/loop conditional expression;
//   - every variable used as a call argument, and every formal parameter.
//
// Each monitored variable becomes one Entry:
//
//	file_path, function, line, variable, type, tags
//
// Entries additionally carry a performance-relevance Score (loop-nesting
// depth weighting with constant-propagation and dead-variable pruning)
// which Options.MinScore/MaxEntries use to cap schema size, and the
// coverage verifier (verify.go) reports which entries the debug
// information cannot actually locate at runtime.
package schema

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/lang"
)

// Tag is a bitmask describing how a monitored variable is used.
type Tag uint8

// Tags, matching the paper's loop / cond / args markers.
const (
	TagNone Tag = 0
	TagLoop Tag = 1 << iota
	TagCond
	TagArgs
)

// Has reports whether all bits of q are set.
func (t Tag) Has(q Tag) bool { return t&q == q }

// String renders tags in the paper's "loop|cond|args" form, or "None".
func (t Tag) String() string {
	if t == TagNone {
		return "None"
	}
	var parts []string
	if t.Has(TagLoop) {
		parts = append(parts, "loop")
	}
	if t.Has(TagCond) {
		parts = append(parts, "cond")
	}
	if t.Has(TagArgs) {
		parts = append(parts, "args")
	}
	return strings.Join(parts, "|")
}

// Entry is one schema line: a variable to monitor.
type Entry struct {
	FilePath string
	Function string // declaring function, or debuginfo.GlobalScope
	Line     int    // definition line
	Variable string
	Type     string // "int" or "ptr"
	Tags     Tag
	// Score is the performance-relevance score: the tag weight scaled by
	// 1 + the variable's deepest loop-nesting access depth, or 0 for
	// variables that never vary or are never read.
	Score float64
}

// Key identifies the variable (function scope + name).
func (e Entry) Key() string { return e.Function + "\x00" + e.Variable }

// String renders the entry in the paper's schema format.
func (e Entry) String() string {
	return fmt.Sprintf("%s, %s, %d, %s, %s, %s",
		e.FilePath, e.Function, e.Line, e.Variable, e.Type, e.Tags)
}

// ScoredString renders the entry with its relevance score as a 7th field.
func (e Entry) ScoredString() string {
	return e.String() + ", " + FormatScore(e.Score)
}

// FormatScore renders a relevance score in the canonical schema syntax.
func FormatScore(s float64) string {
	return strconv.FormatFloat(s, 'g', -1, 64)
}

// Schema is the ordered list of variables selected for monitoring.
type Schema struct {
	Entries []Entry
	// Pruned counts entries removed by the MinScore/MaxEntries options.
	Pruned int

	indexMu sync.Mutex
	index   map[string]int // Key() -> Entries index, built lazily by Lookup
}

// Lookup returns the entry for a variable, or nil. fn is the declaring
// function or debuginfo.GlobalScope. Lookup is safe for concurrent use as
// long as Entries is not being mutated concurrently; the lazy index build is
// mutex-guarded so the parallel analysis engine can share one Schema.
func (s *Schema) Lookup(fn, name string) *Entry {
	s.indexMu.Lock()
	if s.index == nil || len(s.index) != len(s.Entries) {
		s.index = make(map[string]int, len(s.Entries))
		for i := range s.Entries {
			s.index[s.Entries[i].Key()] = i
		}
	}
	i, ok := s.index[fn+"\x00"+name]
	s.indexMu.Unlock()
	if ok {
		return &s.Entries[i]
	}
	return nil
}

// Options controls schema generation.
type Options struct {
	// Functions, when non-empty, restricts monitored locals to these
	// functions — the paper's per-component restriction ("limit the
	// variables to monitor to specific components"). Globals stay
	// monitored, tagged only by their uses inside these functions.
	Functions []string
	// SkipGlobals drops global variables from the schema.
	SkipGlobals bool
	// MinScore drops entries whose relevance score is below the bound
	// (0 disables the filter).
	MinScore float64
	// MaxEntries caps the schema at the N highest-scoring entries
	// (0 = unlimited). Ties break on function then variable name, so the
	// result is deterministic.
	MaxEntries int
	// StaticPriors folds the abstract interpreter's value evidence into
	// the relevance scores: variables naming a symbolic loop trip bound or
	// feeding work()/block() double their score, provably-constant
	// variables halve it. Off by default — the default schema stays
	// byte-for-byte identical to the heuristic scorer's.
	StaticPriors bool
}

// GenerateIR runs the static analysis over a parsed file and its compiled
// program p (compiler.Compile(f)) and returns the schema of variables to
// monitor. Induction detection and relevance scoring run on the IR
// (package cfa).
func GenerateIR(f *lang.File, p *compiler.Program, opts Options) *Schema {
	g := &generator{
		file:    f,
		prog:    p,
		ptrs:    compiler.InferPointers(f),
		globals: map[string]*lang.VarDecl{},
		found:   map[string]*Entry{},
		res:     map[*lang.Ident]resolution{},
	}
	if len(opts.Functions) > 0 {
		g.funcs = map[string]bool{}
		for _, name := range opts.Functions {
			g.funcs[name] = true
		}
	}
	for _, gd := range f.Globals() {
		g.globals[gd.Name] = gd
	}

	if !opts.SkipGlobals {
		for _, gd := range f.Globals() {
			g.ensure(debuginfo.GlobalScope, gd.Name, gd.Pos.Line)
		}
	}
	for _, fn := range f.Funcs() {
		if g.selected(fn.Name) {
			g.buildResolver(fn)
			g.analyzeFunc(fn)
		}
	}
	g.buildIR()
	g.applyIRInduction()

	s := &Schema{Entries: make([]Entry, 0, len(g.found))}
	for _, e := range g.found {
		s.Entries = append(s.Entries, *e)
	}
	g.scoreEntries(s)
	if opts.StaticPriors {
		g.applyStaticPriors(s)
	}
	prune(s, opts)
	sortEntries(s.Entries)
	return s
}

// sortEntries establishes the canonical schema order: function, then name.
func sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		return a.Variable < b.Variable
	})
}

// prune applies the MinScore/MaxEntries caps. Selection sorts by descending
// score with the canonical order as tie break, so output is deterministic.
func prune(s *Schema, opts Options) {
	before := len(s.Entries)
	if opts.MinScore > 0 {
		kept := s.Entries[:0]
		for _, e := range s.Entries {
			if e.Score >= opts.MinScore {
				kept = append(kept, e)
			}
		}
		s.Entries = kept
	}
	if opts.MaxEntries > 0 && len(s.Entries) > opts.MaxEntries {
		sort.Slice(s.Entries, func(i, j int) bool {
			a, b := s.Entries[i], s.Entries[j]
			if a.Score != b.Score {
				return a.Score > b.Score
			}
			if a.Function != b.Function {
				return a.Function < b.Function
			}
			return a.Variable < b.Variable
		})
		s.Entries = s.Entries[:opts.MaxEntries]
	}
	s.Pruned = before - len(s.Entries)
}

type generator struct {
	file    *lang.File
	prog    *compiler.Program
	funcs   map[string]bool // Options.Functions as a set; nil selects all
	ptrs    map[string]bool
	globals map[string]*lang.VarDecl
	found   map[string]*Entry
	// res maps every resolvable identifier occurrence to its declaration;
	// identifiers are unique AST nodes, so one map spans all functions.
	res map[*lang.Ident]resolution
	// ir holds the per-function flow analyses and const/dead facts
	// (irscore.go).
	ir *irInfo
}

// selected reports whether fn's locals are monitored under
// Options.Functions.
func (g *generator) selected(fn string) bool { return g.funcs == nil || g.funcs[fn] }

// ensure records a monitored variable, returning its entry.
func (g *generator) ensure(fn, name string, line int) *Entry {
	key := fn + "\x00" + name
	if e, ok := g.found[key]; ok {
		return e
	}
	typ := "int"
	if g.ptrs[key] {
		typ = "ptr"
	}
	e := &Entry{
		FilePath: g.file.Path,
		Function: fn,
		Line:     line,
		Variable: name,
		Type:     typ,
		Tags:     TagNone,
	}
	g.found[key] = e
	return e
}

// tagIdent adds tags to the (possibly new) entry for an identifier
// occurrence, using the scope resolution built by buildResolver.
func (g *generator) tagIdent(id *lang.Ident, tags Tag) {
	r, ok := g.res[id]
	if !ok {
		return
	}
	if r.scope == debuginfo.GlobalScope {
		if _, monitored := g.found[r.scope+"\x00"+id.Name]; !monitored {
			// Globals excluded via SkipGlobals stay excluded; tags
			// only annotate entries that exist.
			return
		}
	}
	g.ensure(r.scope, id.Name, r.line).Tags |= tags
}

// identsIn collects the identifier occurrences appearing in an expression.
func identsIn(e lang.Expr) []*lang.Ident {
	var out []*lang.Ident
	lang.Walk(e, func(n lang.Node) bool {
		if id, ok := n.(*lang.Ident); ok {
			out = append(out, id)
		}
		return true
	})
	return out
}

func (g *generator) analyzeFunc(fn *lang.FuncDecl) {
	// Formal parameters are monitored with the args tag (the paper's
	// Figure 3 shows checkpoint_lsn, a parameter, tagged args).
	for _, p := range fn.Params {
		g.ensure(fn.Name, p.Name, p.Pos.Line).Tags |= TagArgs
	}

	lang.Walk(fn.Body, func(n lang.Node) bool {
		switch x := n.(type) {
		case *lang.IfStmt:
			for _, id := range identsIn(x.Cond) {
				g.tagIdent(id, TagCond)
			}
		case *lang.WhileStmt:
			for _, id := range identsIn(x.Cond) {
				g.tagIdent(id, TagCond)
			}
		case *lang.ForStmt:
			if x.Cond != nil {
				for _, id := range identsIn(x.Cond) {
					g.tagIdent(id, TagCond)
				}
			}
		case *lang.CallExpr:
			for _, a := range x.Args {
				for _, id := range identsIn(a) {
					g.tagIdent(id, TagArgs)
				}
			}
		}
		return true
	})
}

// Translate performs the paper's binary static analysis step: it searches
// the debug information for the runtime locations of every schema variable
// and returns the variable metadata (one or more VarLoc entries per
// variable). Variables with no debug locations are silently dropped, exactly
// as vProf treats DWARF-incomplete variables as inaccessible; use Verify to
// report them instead.
func Translate(s *Schema, info *debuginfo.Info) []debuginfo.VarLoc {
	var out []debuginfo.VarLoc
	for _, e := range s.Entries {
		out = append(out, info.VarEntries(e.Function, e.Variable)...)
	}
	return out
}

// Format renders the whole schema in the paper's textual format, one entry
// per line.
func Format(s *Schema) string {
	var b strings.Builder
	for _, e := range s.Entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatScored renders the schema with the relevance score as a 7th field
// on every line. Parse accepts both forms.
func FormatScored(s *Schema) string {
	var b strings.Builder
	for _, e := range s.Entries {
		b.WriteString(e.ScoredString())
		b.WriteByte('\n')
	}
	return b.String()
}
