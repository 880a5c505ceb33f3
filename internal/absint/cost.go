package absint

import (
	"fmt"
	"sort"
	"strings"
)

// Poly is a static cost bound: a polynomial over symbolic loop bounds. Keys
// of Terms are "*"-joined sorted symbol products ("" is the constant term,
// "n" a linear term, "n*n" quadratic). Unbounded marks costs the analyzer
// could not bound (unknown trip counts, recursion, unbounded work args);
// the terms then form a known floor, not a ceiling.
type Poly struct {
	Terms     map[string]int64
	Unbounded bool
}

func zeroPoly() Poly { return Poly{Terms: map[string]int64{}} }

func constPoly(c int64) Poly {
	p := zeroPoly()
	if c != 0 {
		p.Terms[""] = c
	}
	return p
}

func (p *Poly) addTerm(key string, coeff int64) {
	if coeff == 0 {
		return
	}
	if p.Terms == nil {
		p.Terms = map[string]int64{}
	}
	p.Terms[key] = satAdd(p.Terms[key], coeff)
}

func (p *Poly) add(q Poly) {
	for k, c := range q.Terms {
		p.addTerm(k, c)
	}
	p.Unbounded = p.Unbounded || q.Unbounded
}

// scale multiplies every coefficient by a constant trip count.
func (p Poly) scale(n int64) Poly {
	if n < 0 {
		n = 0
	}
	out := zeroPoly()
	out.Unbounded = p.Unbounded
	for k, c := range p.Terms {
		out.addTerm(k, satMul(c, n))
	}
	return out
}

// times multiplies every term by one symbolic factor, keeping the product
// key sorted so "n*m" and "m*n" collapse.
func (p Poly) times(sym string) Poly {
	out := zeroPoly()
	out.Unbounded = p.Unbounded
	for k, c := range p.Terms {
		out.addTerm(mulKey(k, sym), c)
	}
	return out
}

// polySym makes a symbolic name safe for use as a Poly term factor: "*" is
// the key separator, so products inside one symbol ("row*3") are rendered
// with a middle dot to stay atomic.
func polySym(s string) string { return strings.ReplaceAll(s, "*", "·") }

func mulKey(key, sym string) string {
	if key == "" {
		return sym
	}
	parts := append(strings.Split(key, "*"), sym)
	sort.Strings(parts)
	return strings.Join(parts, "*")
}

// Degree returns the polynomial degree (0 for constants; unbounded costs
// report at least 1).
func (p Poly) Degree() int {
	deg := 0
	for k := range p.Terms {
		if k == "" {
			continue
		}
		if d := strings.Count(k, "*") + 1; d > deg {
			deg = d
		}
	}
	if p.Unbounded && deg == 0 {
		deg = 1
	}
	return deg
}

// ConstTicks returns the constant term.
func (p Poly) ConstTicks() int64 { return p.Terms[""] }

// String renders the polynomial deterministically: terms sorted by degree
// then key, constant first; "unbounded" marks open-ended costs.
func (p Poly) String() string {
	keys := make([]string, 0, len(p.Terms))
	for k := range p.Terms {
		if k != "" {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		di, dj := strings.Count(keys[i], "*"), strings.Count(keys[j], "*")
		if di != dj {
			return di < dj
		}
		return keys[i] < keys[j]
	})
	var parts []string
	if c := p.Terms[""]; c != 0 || (len(keys) == 0 && !p.Unbounded) {
		parts = append(parts, fmt.Sprint(c))
	}
	for _, k := range keys {
		c := p.Terms[k]
		if c == 1 {
			parts = append(parts, k)
		} else {
			parts = append(parts, fmt.Sprintf("%d*%s", c, k))
		}
	}
	s := strings.Join(parts, " + ")
	if p.Unbounded {
		if s == "" {
			return "unbounded"
		}
		return s + " + unbounded"
	}
	return s
}

func satAdd(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < a) || (a < 0 && b < 0 && s > a) {
		if a > 0 {
			return PosInf
		}
		return NegInf
	}
	return s
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	m := a * b
	if m/b != a {
		if (a > 0) == (b > 0) {
			return PosInf
		}
		return NegInf
	}
	return m
}

// computeCosts fills BlockCost and Cost for every analyzed function, in an
// order where callees are costed before callers (recursion cycles are
// marked Unbounded up front).
func (an *Analysis) computeCosts() {
	order, cyclic := an.callOrder()
	costed := map[string]Poly{}
	for name, inCycle := range cyclic {
		if inCycle {
			costed[name] = Poly{Terms: map[string]int64{}, Unbounded: true}
		}
	}
	for _, name := range order {
		r := an.byName[name]
		if r == nil {
			continue
		}
		an.costFunc(r, costed)
		if cyclic[name] {
			// Keep the Unbounded marker but expose the computed floor.
			r.Cost.Unbounded = true
		}
		costed[name] = r.Cost
	}
}

// callOrder returns the analyzed function names in reverse topological
// order of the call graph (callees first), plus the set of names on call
// cycles (recursive directly or mutually).
func (an *Analysis) callOrder() (order []string, cyclic map[string]bool) {
	cyclic = map[string]bool{}
	state := map[string]int{} // 0 unvisited, 1 on stack, 2 done
	var onStack []string
	var visit func(name string)
	visit = func(name string) {
		switch state[name] {
		case 1:
			// Back edge: everything from name on the stack is cyclic.
			for i := len(onStack) - 1; i >= 0; i-- {
				cyclic[onStack[i]] = true
				if onStack[i] == name {
					break
				}
			}
			return
		case 2:
			return
		}
		state[name] = 1
		onStack = append(onStack, name)
		for _, callee := range an.Prog.CallGraph[name] {
			visit(callee)
		}
		onStack = onStack[:len(onStack)-1]
		state[name] = 2
		order = append(order, name)
	}
	for _, r := range an.Funcs {
		visit(r.A.Fn.Name)
	}
	return order, cyclic
}

// costFunc computes r's per-block and total cost from the recorded facts.
// Each instruction costs one tick; OpCall charges one extra dispatch tick;
// work(n) adds up to n ticks (block(n) waits off-CPU and adds none); a call
// site adds the callee's cost with parameter symbols substituted by the
// abstract arguments.
func (an *Analysis) costFunc(r *FuncResult, costed map[string]Poly) {
	a := r.A
	n := len(a.Blocks)
	r.BlockCost = make([]Poly, n)
	for b := 0; b < n; b++ {
		p := constPoly(int64(a.Blocks[b].End - a.Blocks[b].Start))
		if r.In[b] == nil {
			// Value-unreachable blocks execute zero times.
			r.BlockCost[b] = zeroPoly()
			continue
		}
		for _, w := range r.Facts[b].Works {
			if w.Blocked {
				continue // off-CPU wait, no tick cost
			}
			switch {
			case w.Arg.iv.Hi <= 0 && !w.Arg.iv.IsBottom():
				// work of a non-positive amount is free
			case w.Arg.iv.Hi != PosInf:
				p.addTerm("", max64(0, w.Arg.iv.Hi))
			case w.Arg.sym != "":
				p.addTerm(polySym(w.Arg.sym), 1)
			default:
				p.Unbounded = true
			}
		}
		for _, c := range r.Facts[b].Calls {
			p.addTerm("", 1) // call dispatch overhead
			p.add(an.callCost(c, costed))
		}
		r.BlockCost[b] = p
	}

	// Compose through the loop nest: a block executes at most the product
	// of its enclosing loops' trip bounds times.
	total := zeroPoly()
	for b := 0; b < n; b++ {
		if r.In[b] == nil {
			continue
		}
		p := r.BlockCost[b]
		for _, l := range a.Loops {
			if !l.Contains(b) {
				continue
			}
			bd := r.Bounds[l.Header]
			switch bd.Kind {
			case BoundConst:
				p = p.scale(bd.Trips)
			case BoundSym, BoundOpaque:
				p = p.times(polySym(bd.Name))
			default:
				p.Unbounded = true
			}
		}
		total.add(p)
	}
	r.Cost = total
}

// callCost instantiates the callee's cost polynomial at a call site:
// occurrences of callee parameter names in cost symbols are replaced by the
// abstract argument (constant arguments scale the coefficient, symbolic
// ones rename the factor; anything else makes the factor opaque).
func (an *Analysis) callCost(c callSite, costed map[string]Poly) Poly {
	fn := an.Prog.Funcs[c.Callee]
	callee, ok := costed[fn.Name]
	if !ok {
		// Callee not analyzed (no blocks): charge nothing beyond dispatch.
		return zeroPoly()
	}
	params := map[string]int{}
	for i := 0; i < fn.NumParams && i < len(fn.SlotNames); i++ {
		if fn.SlotNames[i] != "" {
			params[fn.SlotNames[i]] = i
		}
	}
	out := zeroPoly()
	out.Unbounded = callee.Unbounded
	for key, coeff := range callee.Terms {
		if key == "" {
			out.addTerm("", coeff)
			continue
		}
		scale := coeff
		var syms []string
		bounded := true
		for _, factor := range strings.Split(key, "*") {
			pi, isParam := params[factor]
			if !isParam || pi >= len(c.Args) {
				syms = append(syms, fn.Name+"."+factor)
				continue
			}
			arg := c.Args[pi]
			if v, ok := arg.iv.ConstValue(); ok {
				scale = satMul(scale, max64(0, v))
			} else if arg.iv.Hi != PosInf && !arg.iv.IsBottom() {
				scale = satMul(scale, max64(0, arg.iv.Hi))
			} else if arg.sym != "" {
				syms = append(syms, polySym(arg.sym))
			} else {
				bounded = false
			}
		}
		if !bounded {
			out.Unbounded = true
			continue
		}
		if scale == 0 {
			continue
		}
		sort.Strings(syms)
		out.addTerm(strings.Join(syms, "*"), scale)
	}
	return out
}

// FunctionCosts returns the total static cost bound of every analyzed
// function, rendered, keyed by function name.
func (an *Analysis) FunctionCosts() map[string]string {
	out := make(map[string]string, len(an.Funcs))
	for _, r := range an.Funcs {
		out[r.A.Fn.Name] = r.Cost.String()
	}
	return out
}
