package schema

import (
	"vprof/internal/absint"
	"vprof/internal/cfa"
	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
)

// irInfo is the IR-level evidence the scorer works from: one control/data
// flow analysis per user function plus the never-varies / never-read facts
// used for constant-propagation and dead-variable pruning.
type irInfo struct {
	analyses map[string]*cfa.FuncAnalysis
	constant map[string]bool // Entry.Key() -> value never varies
	dead     map[string]bool // Entry.Key() -> value never read
}

// buildIR analyzes every non-synthetic function of the compiled program.
func (g *generator) buildIR() {
	ir := &irInfo{analyses: map[string]*cfa.FuncAnalysis{}}
	for _, fn := range g.prog.Funcs {
		if fn.Synthetic {
			continue
		}
		if a := cfa.AnalyzeFunc(g.prog, fn); a != nil {
			ir.analyses[fn.Name] = a
		}
	}
	ir.constant, ir.dead = varFacts(g.prog)
	g.ir = ir
}

// applyIRInduction tags loop induction variables detected on the IR: for
// each natural loop, the variables written inside the loop and read by its
// exit condition (cfa.FuncAnalysis.InductionVars), including induction
// through the if-break exits of for(;;) loops. Options.Functions and
// SkipGlobals apply as they do to the other tags.
func (g *generator) applyIRInduction() {
	for _, fn := range g.prog.Funcs {
		if fn.Synthetic || !g.selected(fn.Name) {
			continue
		}
		a := g.ir.analyses[fn.Name]
		if a == nil {
			continue
		}
		for _, iv := range a.InductionVars() {
			name, isGlobal := a.VarName(iv.Var)
			if name == "" {
				continue
			}
			if isGlobal {
				if _, monitored := g.found[debuginfo.GlobalScope+"\x00"+name]; !monitored {
					continue // SkipGlobals stays in force
				}
				g.found[debuginfo.GlobalScope+"\x00"+name].Tags |= TagLoop
				continue
			}
			line := 0
			if iv.Var < len(fn.SlotLines) {
				line = fn.SlotLines[iv.Var]
			}
			g.ensure(fn.Name, name, line).Tags |= TagLoop
		}
	}
}

// scoreEntries assigns each entry its performance-relevance score:
//
//	score = tagWeight × (1 + deepest loop-nesting depth of any access)
//
// where tagWeight = 1 + 2·loop + 1·cond + 1·args. Variables whose value
// never varies (constant propagation: every store writes the same literal)
// or that are never read (dead) score 0 — monitoring them cannot correlate
// with cost.
func (g *generator) scoreEntries(s *Schema) {
	for i := range s.Entries {
		e := &s.Entries[i]
		w := 1.0
		if e.Tags.Has(TagLoop) {
			w += 2
		}
		if e.Tags.Has(TagCond) {
			w += 1
		}
		if e.Tags.Has(TagArgs) {
			w += 1
		}
		if g.ir.constant[e.Key()] || g.ir.dead[e.Key()] {
			e.Score = 0
			continue
		}
		e.Score = w * float64(1+g.accessDepth(e))
	}
}

// applyStaticPriors folds the abstract interpreter's evidence into the
// relevance scores (Options.StaticPriors): a variable that names a symbolic
// loop trip bound directly scales iteration counts, and one feeding a
// work()/block() argument is CPU or wall time — both double. A variable
// every reachable abstract state pins to one constant cannot correlate with
// cost and halves. The multipliers are powers of two, exact in float64, so
// scoring stays deterministic across platforms.
func (g *generator) applyStaticPriors(s *Schema) {
	priors := absint.AnalyzeProgram(g.prog).Priors()
	for i := range s.Entries {
		e := &s.Entries[i]
		if e.Score == 0 {
			continue
		}
		p, ok := priors[e.Key()]
		if !ok {
			continue
		}
		if p.TripBound {
			e.Score *= 2
		}
		if p.FeedsWork {
			e.Score *= 2
		}
		if p.Singleton && !p.TripBound && !p.FeedsWork {
			e.Score *= 0.5
		}
	}
}

// accessDepth returns the deepest loop nesting in which the entry's
// variable is loaded or stored. Globals are checked across every function
// in the program: their runtime behavior does not depend on
// Options.Functions.
func (g *generator) accessDepth(e *Entry) int {
	if e.Function == debuginfo.GlobalScope {
		gi, ok := g.prog.GlobalIndex(e.Variable)
		if !ok {
			return 0
		}
		max := 0
		for _, fn := range g.prog.Funcs {
			a := g.ir.analyses[fn.Name]
			if a == nil {
				continue
			}
			if d := a.MaxAccessDepth(a.GlobalVar(gi)); d > max {
				max = d
			}
		}
		return max
	}
	a := g.ir.analyses[e.Function]
	if a == nil {
		return 0
	}
	max := 0
	for slot, name := range a.Fn.SlotNames {
		if name != e.Variable {
			continue
		}
		if d := a.MaxAccessDepth(slot); d > max {
			max = d
		}
	}
	return max
}

// varFacts scans the program for two prunable classes of variables, keyed
// like Entry.Key():
//
//   - constant: every store writes the same literal value (or the variable
//     is never stored at all) — its value never varies at runtime;
//   - dead: the variable is never loaded.
//
// A source name covering several slots (shadowed redeclarations) gets the
// facts only if every slot of that name has them. Parameters are never
// constant — their value arrives from the caller.
func varFacts(prog *compiler.Program) (constant, dead map[string]bool) {
	constant = map[string]bool{}
	dead = map[string]bool{}
	and := func(m map[string]bool, key string, v bool) {
		if prev, seen := m[key]; seen {
			m[key] = prev && v
		} else {
			m[key] = v
		}
	}

	for _, fn := range prog.Funcs {
		if fn.Synthetic {
			continue
		}
		for slot, name := range fn.SlotNames {
			if name == "" {
				continue
			}
			key := fn.Name + "\x00" + name
			c, d := slotFacts(prog, fn, slot)
			and(constant, key, c)
			and(dead, key, d)
		}
	}

	for gi, name := range prog.GlobalNames {
		key := debuginfo.GlobalScope + "\x00" + name
		c, d := globalFacts(prog, gi)
		constant[key] = c
		dead[key] = d
	}
	return constant, dead
}

// slotFacts inspects one frame slot of one function.
func slotFacts(prog *compiler.Program, fn *compiler.FuncInfo, slot int) (constant, dead bool) {
	constant = slot >= fn.NumParams
	dead = true
	stores := 0
	var value int64
	for pc := fn.Entry; pc < fn.End; pc++ {
		ins := prog.Instrs[pc]
		if int(ins.A) != slot {
			continue
		}
		switch ins.Op {
		case compiler.OpLoadL:
			dead = false
		case compiler.OpStoreL:
			v, isConst := constOperand(prog, fn.Entry, pc)
			if !isConst || (stores > 0 && v != value) {
				constant = false
			}
			value = v
			stores++
		}
	}
	if stores == 0 {
		constant = false // parameters, or nothing to fold
	}
	return constant, dead
}

// globalFacts inspects one global across the whole program, including the
// synthetic __init initializer. A global with no stores anywhere holds its
// zero value forever and counts as constant.
func globalFacts(prog *compiler.Program, gi int) (constant, dead bool) {
	constant, dead = true, true
	stores := 0
	var value int64
	for pc := 0; pc < len(prog.Instrs); pc++ {
		ins := prog.Instrs[pc]
		if int(ins.A) != gi {
			continue
		}
		switch ins.Op {
		case compiler.OpLoadG:
			dead = false
		case compiler.OpStoreG:
			v, isConst := constOperand(prog, 0, pc)
			if !isConst || (stores > 0 && v != value) {
				constant = false
			}
			value = v
			stores++
		}
	}
	return constant, dead
}

// constOperand reports whether the value stored at pc is a literal: the
// instruction just before the store pushed it with OpConst.
func constOperand(prog *compiler.Program, lo, pc int) (int64, bool) {
	if pc <= lo {
		return 0, false
	}
	prev := prog.Instrs[pc-1]
	if prev.Op != compiler.OpConst {
		return 0, false
	}
	return prog.Consts[prev.A], true
}
