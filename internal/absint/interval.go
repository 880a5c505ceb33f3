// Package absint is a worklist-driven abstract interpreter over the
// internal/cfa IR: an interval + constant-propagation domain with widening
// and narrowing at loop heads, symbolic loop trip-count inference for the
// induction variables cfa detects, per-basic-block static cost bounds
// (symbolic polynomials in the inferred bounds), and a rule-based
// performance-smell checker built on top (`vprof check`).
package absint

import (
	"fmt"
	"math"
)

// NegInf and PosInf are the sentinel bound values standing for unbounded
// intervals. A concrete math.MinInt64/MaxInt64 is conflated with the
// sentinel — a sound over-approximation, since sentinels only ever widen.
const (
	NegInf = math.MinInt64
	PosInf = math.MaxInt64
)

// Interval is a value range [Lo, Hi] over the VM's int64 values. Lo > Hi
// encodes bottom (no value / unreachable); Bottom() is the canonical form.
type Interval struct{ Lo, Hi int64 }

// Top is the full range.
func Top() Interval { return Interval{NegInf, PosInf} }

// Bottom is the empty range.
func Bottom() Interval { return Interval{PosInf, NegInf} }

// Const is the singleton range {v}.
func Const(v int64) Interval { return Interval{v, v} }

// Range is [lo, hi]; lo > hi yields Bottom.
func Range(lo, hi int64) Interval {
	if lo > hi {
		return Bottom()
	}
	return Interval{lo, hi}
}

func (iv Interval) IsBottom() bool { return iv.Lo > iv.Hi }

// ConstValue reports whether the interval is a singleton and its value.
// Sentinel singletons do not count: they stand for unbounded sides.
func (iv Interval) ConstValue() (int64, bool) {
	if iv.Lo == iv.Hi && iv.Lo != NegInf && iv.Lo != PosInf {
		return iv.Lo, true
	}
	return 0, false
}

// Contains reports whether concrete value v is in the range. Sentinel
// bounds admit everything on their side, which the plain comparison
// already implements.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

func (iv Interval) String() string {
	if iv.IsBottom() {
		return "bot"
	}
	lo, hi := "-inf", "+inf"
	if iv.Lo != NegInf {
		lo = fmt.Sprint(iv.Lo)
	}
	if iv.Hi != PosInf {
		hi = fmt.Sprint(iv.Hi)
	}
	if iv.Lo == iv.Hi {
		return "[" + lo + "]"
	}
	return "[" + lo + "," + hi + "]"
}

// Join is the least upper bound: the smallest interval covering both.
func Join(a, b Interval) Interval {
	if a.IsBottom() {
		return b
	}
	if b.IsBottom() {
		return a
	}
	return Interval{min64(a.Lo, b.Lo), max64(a.Hi, b.Hi)}
}

// Meet is the greatest lower bound: the intersection (possibly Bottom).
func Meet(a, b Interval) Interval {
	if a.IsBottom() || b.IsBottom() {
		return Bottom()
	}
	return Range(max64(a.Lo, b.Lo), min64(a.Hi, b.Hi))
}

// Widen extrapolates an unstable bound to its sentinel: any bound of next
// that escapes prev jumps straight to ±inf. Guarantees termination of the
// ascending fixpoint in at most two steps per variable and side.
func Widen(prev, next Interval) Interval {
	if prev.IsBottom() {
		return next
	}
	if next.IsBottom() {
		return prev
	}
	w := prev
	if next.Lo < prev.Lo {
		w.Lo = NegInf
	}
	if next.Hi > prev.Hi {
		w.Hi = PosInf
	}
	return w
}

// Narrow refines a widened interval with a recomputed one: only sentinel
// bounds may improve, so the descending sequence terminates immediately.
func Narrow(prev, next Interval) Interval {
	if prev.IsBottom() || next.IsBottom() {
		return prev
	}
	n := prev
	if prev.Lo == NegInf {
		n.Lo = next.Lo
	}
	if prev.Hi == PosInf {
		n.Hi = next.Hi
	}
	if n.Lo > n.Hi {
		return prev
	}
	return n
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// finite reports whether a bound is a real number rather than a sentinel.
func finite(v int64) bool { return v != NegInf && v != PosInf }

// checkedAdd returns a+b and whether it did not overflow.
func checkedAdd(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// checkedSub returns a-b and whether it did not overflow.
func checkedSub(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

// checkedMul returns a*b and whether it did not overflow.
func checkedMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// Add is the transfer function of x + y under the VM's wrapping int64
// semantics. Sentinel bounds conflate with MinInt64/MaxInt64, so the bound
// arithmetic is literal: [x.Lo+y.Lo, x.Hi+y.Hi]. If either endpoint sum
// overflows, some concrete pair wraps around to the far end of the value
// space and the only sound answer is Top.
func Add(x, y Interval) Interval {
	if x.IsBottom() || y.IsBottom() {
		return Bottom()
	}
	lo, okLo := checkedAdd(x.Lo, y.Lo)
	hi, okHi := checkedAdd(x.Hi, y.Hi)
	if !okLo || !okHi {
		return Top()
	}
	return Interval{lo, hi}
}

// Sub is the transfer function of x - y: literal bound arithmetic
// [x.Lo-y.Hi, x.Hi-y.Lo], Top on any endpoint overflow (wrapping).
func Sub(x, y Interval) Interval {
	if x.IsBottom() || y.IsBottom() {
		return Bottom()
	}
	lo, okLo := checkedSub(x.Lo, y.Hi)
	hi, okHi := checkedSub(x.Hi, y.Lo)
	if !okLo || !okHi {
		return Top()
	}
	return Interval{lo, hi}
}

// Neg is the transfer function of -x. Negating math.MinInt64 wraps in the
// VM, so an interval unbounded below (which conflates that value) degrades
// to Top.
func Neg(x Interval) Interval {
	if x.IsBottom() {
		return Bottom()
	}
	if x.Lo == NegInf {
		return Top()
	}
	lo := int64(NegInf)
	if finite(x.Hi) {
		lo = -x.Hi
	}
	return Interval{lo, -x.Lo}
}

// Mul is the transfer function of x * y: precise for finite operands whose
// corner products fit in int64, Top otherwise (wrapping).
func Mul(x, y Interval) Interval {
	if x.IsBottom() || y.IsBottom() {
		return Bottom()
	}
	if v, ok := x.ConstValue(); ok && v == 0 {
		return Const(0)
	}
	if v, ok := y.ConstValue(); ok && v == 0 {
		return Const(0)
	}
	if !finite(x.Lo) || !finite(x.Hi) || !finite(y.Lo) || !finite(y.Hi) {
		return Top()
	}
	lo, hi := int64(PosInf), int64(NegInf)
	for _, a := range [2]int64{x.Lo, x.Hi} {
		for _, b := range [2]int64{y.Lo, y.Hi} {
			p, ok := checkedMul(a, b)
			if !ok {
				return Top()
			}
			lo, hi = min64(lo, p), max64(hi, p)
		}
	}
	return Interval{lo, hi}
}

// Div is the transfer function of x / y (Go-truncated). Division by zero
// traps in the VM, so y = {0} yields Bottom; otherwise zero is excluded
// from the divisor range conservatively. Extremes of truncated division
// occur at corner numerators and minimal-magnitude divisors, so ±1 join
// the candidate divisors whenever the range admits them.
func Div(x, y Interval) Interval {
	if x.IsBottom() || y.IsBottom() {
		return Bottom()
	}
	if v, ok := y.ConstValue(); ok && v == 0 {
		return Bottom() // trap: no successor state
	}
	if !finite(x.Lo) || !finite(x.Hi) {
		return Top()
	}
	var divs []int64
	addDiv := func(d int64) {
		if d != 0 && finite(d) && y.Contains(d) {
			divs = append(divs, d)
		}
	}
	yl, yh := y.Lo, y.Hi
	if yl == 0 {
		yl = 1
	}
	if yh == 0 {
		yh = -1
	}
	addDiv(yl)
	addDiv(yh)
	addDiv(1)
	addDiv(-1)
	lo, hi := int64(PosInf), int64(NegInf)
	consider := func(q int64) { lo, hi = min64(lo, q), max64(hi, q) }
	if !finite(y.Lo) || !finite(y.Hi) {
		consider(0) // |y| can exceed |x|, truncating to zero
	}
	for _, n := range [2]int64{x.Lo, x.Hi} {
		for _, d := range divs {
			if n == math.MinInt64 && d == -1 {
				return Top() // wraps in the VM
			}
			consider(n / d)
		}
	}
	if lo > hi {
		return Top() // no usable divisor candidates
	}
	return Interval{lo, hi}
}

// Mod is the transfer function of x % y (Go semantics: the result follows
// the sign of x, with |r| < |y| and |r| <= |x|). y = {0} traps (Bottom).
func Mod(x, y Interval) Interval {
	if x.IsBottom() || y.IsBottom() {
		return Bottom()
	}
	if v, ok := y.ConstValue(); ok && v == 0 {
		return Bottom()
	}
	mag := int64(PosInf)
	if finite(y.Lo) && finite(y.Hi) && y.Lo != math.MinInt64 {
		mag = max64(abs64(y.Lo), abs64(y.Hi)) - 1
	}
	if finite(x.Lo) && finite(x.Hi) && x.Lo != math.MinInt64 {
		mag = min64(mag, max64(abs64(x.Lo), abs64(x.Hi)))
	}
	lo, hi := -mag, mag
	if mag == PosInf {
		lo = NegInf
	}
	if x.Lo >= 0 {
		lo = 0
	}
	if x.Hi <= 0 {
		hi = 0
	}
	return Range(lo, hi)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// bool01 is the [0,1] result range of comparisons and logical operators.
func bool01() Interval { return Interval{0, 1} }

// Cmp is the transfer function of the comparison operators: [1] when the
// ranges prove the relation, [0] when they refute it, [0,1] otherwise.
// The op codes are lang.BinaryOp values (BinEq..BinGe), passed as int to
// keep this file self-contained.
func Cmp(op CmpOp, x, y Interval) Interval {
	if x.IsBottom() || y.IsBottom() {
		return Bottom()
	}
	t, f := cmpVerdict(op, x, y)
	switch {
	case t && !f:
		return Const(1)
	case f && !t:
		return Const(0)
	}
	return bool01()
}

// CmpOp is a comparison operator in the abstract domain.
type CmpOp int

const (
	CmpEq CmpOp = iota
	CmpNeq
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "=="
	case CmpNeq:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Negate returns the complementary operator.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpEq:
		return CmpNeq
	case CmpNeq:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	}
	return op
}

// cmpVerdict reports whether the relation can be true and can be false.
func cmpVerdict(op CmpOp, x, y Interval) (canTrue, canFalse bool) {
	switch op {
	case CmpEq:
		overlap := x.Lo <= y.Hi && y.Lo <= x.Hi
		single := x.Lo == x.Hi && y.Lo == y.Hi && x.Lo == y.Lo
		return overlap, !single
	case CmpNeq:
		f, t := cmpVerdict(CmpEq, x, y)
		return t, f
	case CmpLt:
		return x.Lo < y.Hi, x.Hi >= y.Lo
	case CmpLe:
		return x.Lo <= y.Hi, x.Hi > y.Lo
	case CmpGt:
		return cmpVerdict(CmpLt, y, x)
	case CmpGe:
		return cmpVerdict(CmpLe, y, x)
	}
	return true, true
}

// decBound / incBound saturate at the sentinels.
func decBound(v int64) int64 {
	if !finite(v) {
		return v
	}
	return v - 1
}

func incBound(v int64) int64 {
	if !finite(v) {
		return v
	}
	return v + 1
}

// Refine narrows x and y under the assumption that `x op y` holds: the
// branch-edge refinement applied on conditional jumps. The results are
// always subsets of the inputs (Meet-based), so refinement is sound even
// when the relation cannot actually constrain a side.
func Refine(op CmpOp, x, y Interval) (Interval, Interval) {
	switch op {
	case CmpEq:
		m := Meet(x, y)
		return m, m
	case CmpNeq:
		// Only singleton exclusion at the edges is expressible.
		if v, ok := y.ConstValue(); ok {
			if x.Lo == v {
				x = Range(incBound(x.Lo), x.Hi)
			} else if x.Hi == v {
				x = Range(x.Lo, decBound(x.Hi))
			}
		}
		if v, ok := x.ConstValue(); ok {
			if y.Lo == v {
				y = Range(incBound(y.Lo), y.Hi)
			} else if y.Hi == v {
				y = Range(y.Lo, decBound(y.Hi))
			}
		}
		return x, y
	case CmpLt:
		return Meet(x, Interval{NegInf, decBound(y.Hi)}), Meet(y, Interval{incBound(x.Lo), PosInf})
	case CmpLe:
		return Meet(x, Interval{NegInf, y.Hi}), Meet(y, Interval{x.Lo, PosInf})
	case CmpGt:
		ny, nx := Refine(CmpLt, y, x)
		return nx, ny
	case CmpGe:
		ny, nx := Refine(CmpLe, y, x)
		return nx, ny
	}
	return x, y
}
