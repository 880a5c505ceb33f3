package vm_test

import (
	"fmt"
	"testing"

	"vprof/internal/vm"
)

// recycleSrc exercises both engines' arena paths: recursion deep enough to
// grow the frame array, scratch-register pressure from nested expressions,
// and rand() so runs are seed-sensitive.
const recycleSrc = `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() {
	var i = 0;
	while (i < 8) {
		out(fib(i) * 3 + rand(7) - (i + 1) * 2);
		i = i + 1;
	}
}`

// TestRecycleDeterminism pins the pool's contract: a VM built from a
// recycled arena (stale registers, high-water-marked frame array) runs
// bit-for-bit identically to one built from fresh allocations, on both
// engines, across differing seeds.
func TestRecycleDeterminism(t *testing.T) {
	p := compile(t, recycleSrc)
	for _, engine := range vm.Engines {
		t.Run(engine.Name, func(t *testing.T) {
			type run struct {
				outputs string
				ticks   int64
			}
			exec := func(seed uint64, recycle bool) run {
				m := vm.New(p, vm.Config{Seed: seed})
				if err := engine.Run(m); err != nil {
					t.Fatal(err)
				}
				r := run{outputs: fmt.Sprint(m.Outputs), ticks: m.Ticks()}
				if recycle {
					m.Recycle()
				}
				return r
			}
			// Fresh-allocation golden for each seed, before any pooling.
			want := map[uint64]run{}
			for seed := uint64(1); seed <= 3; seed++ {
				want[seed] = exec(seed, false)
			}
			// Interleave seeds so every run inherits a dirty arena from a
			// different run.
			for round := 0; round < 4; round++ {
				for seed := uint64(1); seed <= 3; seed++ {
					if got := exec(seed, true); got != want[seed] {
						t.Fatalf("round %d seed %d: recycled run %+v != fresh run %+v", round, seed, got, want[seed])
					}
				}
			}
		})
	}
}

// TestRecycleIdempotent checks double-Recycle is a no-op and scalar state
// survives recycling.
func TestRecycleIdempotent(t *testing.T) {
	p := compile(t, `func main() { out(7); work(10); }`)
	m := vm.New(p, vm.Config{})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ticks := m.Ticks()
	m.Recycle()
	m.Recycle()
	if m.Ticks() != ticks || len(m.Outputs) != 1 || m.Outputs[0] != 7 {
		t.Fatalf("scalar state lost after Recycle: ticks %d (want %d), outputs %v", m.Ticks(), ticks, m.Outputs)
	}
}
