// Off-CPU profiling example — the paper's §7 future-work direction,
// implemented as an extension: apply value-assisted cost calibration to
// *blocked* time instead of CPU time.
//
// The scenario is lock contention: a checkpointer holds a mutex while
// flushing pages; a wrong constraint makes it flush the entire buffer pool,
// so database workers block on the mutex for the whole flush. A CPU profiler
// sees only the flusher (the blocked time is off-CPU and SIGPROF never fires
// while a process sleeps); the off-CPU profile exposes the waiting, and the
// value samples — the mutex-hold-time variable jumping 14x — lead straight
// to the checkpointer's wrong constraint.
//
// Run with: go run ./examples/offcpu-lock
package main

import (
	"fmt"
	"log"
	"sort"

	vprof "vprof"
)

const source = `
var checkpoint_all;
var dirty_pages;
var mutex_hold_ticks;

func buf_flush_batch(n) {
	work(n * 3);
	return n * 3;
}

func log_checkpointer(rounds) {
	for (var r = 0; r < rounds; r++) {
		var to_flush = 64;
		if (checkpoint_all > 0) {
			to_flush = dirty_pages;
		}
		mutex_hold_ticks = buf_flush_batch(to_flush);
		work(40);
	}
	return 0;
}

func log_write_up_to(w) {
	block(mutex_hold_ticks);
	work(25);
	return w;
}

func db_worker(n) {
	for (var i = 0; i < n; i++) {
		log_write_up_to(i);
		work(60);
	}
	return 0;
}

func main() {
	checkpoint_all = input(0);
	dirty_pages = input(1);
	log_checkpointer(input(2));
	db_worker(input(3));
}
`

func main() {
	prog, err := vprof.Compile("log0log.vp", source)
	if err != nil {
		log.Fatal(err)
	}
	sch := prog.GenerateSchema(vprof.SchemaOptions{})

	normal := vprof.RunSpec{Inputs: []int64{0, 900, 6, 40}} // checkpoint_all off
	buggy := vprof.RunSpec{Inputs: []int64{1, 900, 6, 40}}  // checkpoint_all on

	// The on-CPU view: the flusher dominates, the waiting is invisible.
	cpuProfile := prog.Profile(buggy, sch)
	fmt.Println("== on-CPU profile of the buggy run ==")
	printFlat(prog, cpuProfile)

	// The off-CPU view: only blocked instants are sampled.
	buggyOff := buggy
	buggyOff.OffCPU = true
	offProfile := prog.Profile(buggyOff, sch)
	fmt.Println("\n== off-CPU (blocked time) profile of the buggy run ==")
	printFlat(prog, offProfile)

	// Value-assisted calibration over off-CPU profiles, three runs a side.
	normalOff := normal
	normalOff.OffCPU = true
	normalOff.AlarmPhase = 3
	buggyOff.AlarmPhase = 5
	report, err := vprof.Diagnose(prog, sch, normalOff, buggyOff, 3, vprof.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== value-assisted off-CPU ranking ==")
	fmt.Print(report.Render(4))

	fmt.Println("\nThe waiters top the blocked-time ranking, and the anomalous")
	fmt.Println("variable is mutex_hold_ticks — written by log_checkpointer, whose")
	fmt.Println("checkpoint_all condition is the wrong constraint:")
	for _, key := range []string{"#global\x00mutex_hold_ticks", "#global\x00checkpoint_all"} {
		if vr := report.Variables[key]; vr != nil && vr.Tested {
			fmt.Printf("  %-20s discount %.2f (dimension %s)\n", vr.Name, vr.Discount, vr.Dimension)
		}
	}
}

// printFlat prints a raw per-function cost view of a profile.
func printFlat(prog *vprof.Program, p *vprof.Profile) {
	cost := p.FuncPCCost(prog.Debug())
	type kv struct {
		name string
		c    int64
	}
	var flat []kv
	for n, c := range cost {
		flat = append(flat, kv{n, c})
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].c > flat[j].c })
	for i, f := range flat {
		if i >= 4 {
			break
		}
		fmt.Printf("  %2d. %-24s %d ticks\n", i+1, f.name, f.c)
	}
}
