package compiler_test

// Structural tests for the register lowering (Program.Reg): static
// invariants of the emitted code — tick-schedule conservation against
// the stack IR, branch-target sanity, frame sizing — plus presence of
// the superinstruction fusions the lowering promises. Behavioral
// equivalence is enforced separately by internal/vm's differential suite.

import (
	"strings"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/compiler"
	"vprof/internal/lang"
)

func compileRegSrc(t *testing.T, src string) (*compiler.Program, *compiler.RegProgram) {
	t.Helper()
	p := compileSrc(t, src)
	return p, p.Reg
}

// checkRegInvariants asserts, for every function:
//   - Cost == len(PCs) and N == number of instruction-start entries;
//   - every branch/jump target is a valid code index;
//   - every reachable stack PC in the function appears EXACTLY once as
//     an instruction-start entry across the function's tick schedules
//     (tick conservation: the register code charges the same ticks at
//     the same stack PCs as the tree walker);
//   - every continuation entry ^e names an OpCall instruction;
//   - FrameSize covers the named slots.
func checkRegInvariants(t *testing.T, p *compiler.Program, rp *compiler.RegProgram) {
	t.Helper()
	for fi := range rp.Funcs {
		rf := &rp.Funcs[fi]
		info := p.Funcs[fi]
		if rf.FrameSize < rf.NumSlots {
			t.Errorf("%s: FrameSize %d < NumSlots %d", info.Name, rf.FrameSize, rf.NumSlots)
		}
		if int(rf.NumSlots) != info.NumSlots {
			t.Errorf("%s: NumSlots %d != FuncInfo.NumSlots %d", info.Name, rf.NumSlots, info.NumSlots)
		}
		seen := map[int32]int{}
		for i, op := range rf.Code {
			if int(op.Cost) != len(op.PCs) {
				t.Errorf("%s[%d] %v: Cost %d != len(PCs) %d", info.Name, i, op.Code, op.Cost, len(op.PCs))
			}
			n := int32(0)
			for _, e := range op.PCs {
				if e >= 0 {
					n++
					seen[e]++
					if !info.Contains(int(e)) {
						t.Errorf("%s[%d] %v: schedule pc %d outside [%d,%d)",
							info.Name, i, op.Code, e, info.Entry, info.End)
					}
				} else {
					pc := ^e
					if !info.Contains(int(pc)) || p.Instrs[pc].Op != compiler.OpCall {
						t.Errorf("%s[%d] %v: continuation ^%d is not an OpCall in-function",
							info.Name, i, op.Code, pc)
					}
				}
			}
			if n != op.N {
				t.Errorf("%s[%d] %v: N %d != instruction-start entries %d", info.Name, i, op.Code, op.N, n)
			}
			switch op.Code {
			case compiler.RJump, compiler.RBrZ, compiler.RBrNZ, compiler.RBrCmp, compiler.RBrCmpI:
				if op.A < 0 || int(op.A) >= len(rf.Code) {
					t.Errorf("%s[%d] %v: target %d out of range", info.Name, i, op.Code, op.A)
				}
			case compiler.RCall:
				if int(op.A) < 0 || int(op.A) >= len(rp.Funcs) {
					t.Errorf("%s[%d]: callee %d out of range", info.Name, i, op.A)
				}
			}
		}
		for pc, count := range seen {
			if count != 1 {
				t.Errorf("%s: stack pc %d charged %d times, want exactly once", info.Name, pc, count)
			}
		}
	}
}

func TestCompileRegisterInvariantsAllPrograms(t *testing.T) {
	srcs := map[string]string{}
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		srcs[w.ID] = w.Source
		if w.NormalSource != "" {
			srcs[w.ID+"-normal"] = w.NormalSource
		}
	}
	for name, src := range srcs {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			p, rp := compileRegSrc(t, src)
			checkRegInvariants(t, p, rp)
		})
	}
}

func countOps(rp *compiler.RegProgram, code compiler.RegCode) int {
	n := 0
	for _, rf := range rp.Funcs {
		for _, op := range rf.Code {
			if op.Code == code {
				n++
			}
		}
	}
	return n
}

// TestRegisterFusion asserts the promised superinstructions actually
// fire on their canonical patterns.
func TestRegisterFusion(t *testing.T) {
	// A counted loop: the `i < n` + conditional jump pair must fuse into
	// a compare-branch, and `s = s + i` into an arith-with-slot-dest.
	src := `
func main() {
	var n = input(0);
	var s = 0;
	for (var i = 0; i < n; i++) {
		s = s + i;
	}
	out(s);
}`
	p, rp := compileRegSrc(t, src)
	checkRegInvariants(t, p, rp)
	if countOps(rp, compiler.RBrCmp)+countOps(rp, compiler.RBrCmpI) == 0 {
		t.Errorf("no fused compare-branch emitted:\n%s", rp.Disasm())
	}
	mainFn := p.FuncNamed("main")
	found := false
	for _, op := range rp.Funcs[p.MainIndex].Code {
		if (op.Code == compiler.RBin || op.Code == compiler.RBinI) && int(op.A) < mainFn.NumSlots {
			found = true
		}
	}
	if !found {
		t.Errorf("no arith-store fusion into a named slot:\n%s", rp.Disasm())
	}
}

// TestRegisterConstRHSFusion: a constant right operand folds into the
// immediate form rather than materializing a register.
func TestRegisterConstRHSFusion(t *testing.T) {
	_, rp := compileRegSrc(t, `
func main() {
	var x = input(0);
	while (x > 3) {
		x = x - 7;
	}
	out(x);
}`)
	if countOps(rp, compiler.RBinI) == 0 && countOps(rp, compiler.RBrCmpI) == 0 {
		t.Errorf("constant operands not folded to immediate forms:\n%s", rp.Disasm())
	}
}

// TestRegisterTrapsNotFused: a trapping division must terminate its
// fusion group — the following store happens on a separate op so a trap
// never charges the store's tick.
func TestRegisterTrapsNotFused(t *testing.T) {
	p, rp := compileRegSrc(t, `
func main() {
	var a = input(0);
	var b = input(1);
	var q = a / b;
	out(q);
}`)
	checkRegInvariants(t, p, rp)
	for _, rf := range rp.Funcs {
		for _, op := range rf.Code {
			if op.Code != compiler.RBin && op.Code != compiler.RBinI {
				continue
			}
			// Division results must land in a scratch register first
			// (dst >= NumSlots) — never fused into a named slot store.
			if op.D == int32(lang.BinDiv) && op.A < rf.NumSlots {
				t.Errorf("division fused into slot store: %s", op.String())
			}
		}
	}
}

func TestRegisterDisasm(t *testing.T) {
	_, rp := compileRegSrc(t, `func main() { out(1 + 2); }`)
	d := rp.Disasm()
	for _, want := range []string{"func main", "func __init", "ret"} {
		if !strings.Contains(d, want) {
			t.Errorf("Disasm missing %q:\n%s", want, d)
		}
	}
}
