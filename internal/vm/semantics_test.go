package vm

// White-box tests pinning tree-walker semantics the register engine must
// reproduce exactly — gaps found while building the differential
// harness: fractional-carry accumulation in rescale, Interrupt landing
// in the middle of a blocked-tick charge, and FrameView.Slot bounds
// behavior.

import (
	"errors"
	"testing"

	"vprof/internal/compiler"
	"vprof/internal/lang"
)

func mustCompile(t *testing.T, src string) *compiler.Program {
	t.Helper()
	f, err := lang.Parse("t.vp", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRescaleCarry pins the fractional-carry contract: repeated small
// charges accrue to factor*n exactly instead of truncating to zero, the
// carry stays in [0,1) for positive factors, and negative outputs clamp
// at zero while the (pathological) negative carry keeps accumulating.
func TestRescaleCarry(t *testing.T) {
	cases := []struct {
		name    string
		factor  float64
		charges []int64
		want    []int64
		// wantCarry is the carry after the whole sequence.
		wantCarry float64
	}{
		{"half-unit", 0.5, []int64{1, 1, 1, 1}, []int64{0, 1, 0, 1}, 0},
		{"quarter-unit", 0.25, []int64{1, 1, 1, 1, 1, 1, 1, 1}, []int64{0, 0, 0, 1, 0, 0, 0, 1}, 0},
		// Ten accumulations of float64(0.1) land just below 1.0 — the
		// tenth unit tick is still swallowed and the carry sits at
		// 0.9999999999999999. This is the pinned IEEE-754 behavior both
		// engines share (the register engine falls back to per-tick
		// charging whenever a scale hook is active, so the carry
		// sequence is bit-identical).
		{"tenth-unit", 0.1, []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
			[]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0.9999999999999999},
		// ...whereas batching 10 ticks per charge computes 10*0.3 = 3.0
		// exactly (nearest-even rounding) and carries nothing: batch
		// size changes the float trajectory, which is why charge
		// batching is only legal when no scale hook is configured.
		{"speedup-batch", 0.3, []int64{10, 10, 10}, []int64{3, 3, 3}, 0},
		{"slowdown-unit", 1.5, []int64{1, 1, 1, 1}, []int64{1, 2, 1, 2}, 0},
		{"identity", 1.0, []int64{1, 7, 3}, []int64{1, 7, 3}, 0},
		{"zero-factor", 0, []int64{5, 5, 5}, []int64{0, 0, 0}, 0},
		{"negative-clamps", -1, []int64{1, 1}, []int64{0, 0}, -2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var carry float64
			for i, n := range tc.charges {
				got := rescale(n, tc.factor, &carry)
				if got != tc.want[i] {
					t.Fatalf("charge %d: rescale(%d, %v) = %d, want %d (carry now %v)",
						i, n, tc.factor, got, tc.want[i], carry)
				}
				if tc.factor >= 0 && (carry < 0 || carry >= 1) {
					t.Fatalf("charge %d: carry %v escaped [0,1)", i, carry)
				}
			}
			if carry != tc.wantCarry {
				t.Fatalf("final carry = %v, want %v", carry, tc.wantCarry)
			}
		})
	}
}

// TestInterruptDuringBlockedCharge pins that a blocked charge always
// completes in full: chargeBlocked has no stop check, so an Interrupt
// raised by a wall alarm mid-block(n) still accrues all n blocked ticks
// (and keeps firing later wall alarms inside the same charge) before the
// run stops at the next instruction boundary.
func TestInterruptDuringBlockedCharge(t *testing.T) {
	src := `func main() { work(5); block(100); out(1); }`
	for _, eng := range Engines {
		eng := eng
		t.Run(eng.Name, func(t *testing.T) {
			p := mustCompile(t, src)
			var fires []int64
			var m *VM
			m = New(p, Config{
				WallAlarmInterval: 30,
				OnWallAlarm: func(v *VM, blocked bool) {
					fires = append(fires, v.WallTicks())
					if !blocked {
						t.Fatalf("alarm at wall=%d not flagged blocked", v.WallTicks())
					}
					if len(fires) == 1 {
						v.Interrupt(nil)
					}
				},
			})
			err := eng.Run(m)
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("err = %v, want ErrInterrupted", err)
			}
			// The full block(100) is charged even though the first alarm
			// interrupted: blocked time never splits.
			if m.BlockedTicks() != 100 {
				t.Fatalf("blocked = %d, want 100", m.BlockedTicks())
			}
			// Every wall alarm inside the charge still fired (wall crosses
			// 30, 60, 90 during the block, plus any CPU-side crossings).
			if len(fires) < 3 {
				t.Fatalf("wall alarms fired %d times (%v), want >= 3", len(fires), fires)
			}
			// out(1) after the block never ran.
			if len(m.Outputs) != 0 {
				t.Fatalf("outputs = %v, want none", m.Outputs)
			}
		})
	}
}

// TestFrameViewSlotBounds pins that out-of-range Slot reads — a profiler
// reading a garbage register — return the zero Value on both engines,
// and in-range reads see the live slot values at alarm time.
func TestFrameViewSlotBounds(t *testing.T) {
	src := `
func leaf(a, b) { var c = a * 10 + b; work(50); return c; }
func main() { out(leaf(3, 4)); }`
	for _, eng := range Engines {
		eng := eng
		t.Run(eng.Name, func(t *testing.T) {
			p := mustCompile(t, src)
			checked := false
			m := New(p, Config{
				AlarmInterval: 30,
				OnAlarm: func(v *VM) {
					fr, ok := v.Frame(0)
					if !ok || checked {
						return
					}
					if p.Funcs[fr.FuncIndex].Name != "leaf" {
						return
					}
					checked = true
					cases := []struct {
						slot int
						want Value
					}{
						{-1, Value{}},
						{0, Value{I: 3}},
						{1, Value{I: 4}},
						{2, Value{I: 34}},
						{3, Value{}}, // past NumSlots
						{1 << 20, Value{}},
					}
					for _, tc := range cases {
						if got := fr.Slot(tc.slot); got != tc.want {
							t.Errorf("Slot(%d) = %+v, want %+v", tc.slot, got, tc.want)
						}
					}
				},
			})
			if err := eng.Run(m); err != nil {
				t.Fatal(err)
			}
			if !checked {
				t.Fatal("no alarm observed the leaf frame")
			}
		})
	}
}
