package vprof_test

import (
	"context"
	"fmt"
	"log"

	vprof "vprof"
)

// The misleading-profile situation in miniature: driver (the root cause)
// loops forever because its threshold is wrongly zero, spending all its
// time in the necessary expensive_worker.
const exampleSource = `
var threshold;

func expensive_worker(n) {
	work(400);
	return n - 1;
}

func driver(rounds) {
	var processed = 0;
	for (var r = 0; r < rounds; r++) {
		var todo = 10;
		while (todo > threshold) {
			todo = expensive_worker(todo);
		}
		processed++;
	}
	return processed;
}

func main() {
	threshold = input(0);
	driver(input(1));
}
`

// ExampleCompile shows compiling a target program and inspecting it.
func ExampleCompile() {
	prog, err := vprof.Compile("example.vp", exampleSource)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(prog.Functions())
	// Output: [expensive_worker driver main]
}

// ExampleProgram_GenerateSchema shows the paper's §3.1 variable selection.
func ExampleProgram_GenerateSchema() {
	prog, err := vprof.Compile("example.vp", exampleSource)
	if err != nil {
		log.Fatal(err)
	}
	sch := prog.GenerateSchema(vprof.SchemaOptions{})
	fmt.Print(vprof.FormatSchema(sch))
	// Output:
	// example.vp, #global, 2, threshold, int, cond
	// example.vp, driver, 11, r, int, loop|cond
	// example.vp, driver, 9, rounds, int, cond|args
	// example.vp, driver, 12, todo, int, loop|cond|args
	// example.vp, expensive_worker, 4, n, int, args
}

// ExampleAnalyzeContext shows the context-first API: profile both
// executions under a cancellable context, then analyze with an
// AnalyzeRequest and options. Canceling ctx would stop the profiling runs
// at the next sampling alarm and drain the analysis workers.
func ExampleAnalyzeContext() {
	prog, err := vprof.Compile("example.vp", exampleSource)
	if err != nil {
		log.Fatal(err)
	}
	sch := prog.GenerateSchema(vprof.SchemaOptions{})
	ctx := context.Background()
	normal, err := prog.ProfileContext(ctx, vprof.RunSpec{Inputs: []int64{8, 40}}, sch)
	if err != nil {
		log.Fatal(err)
	}
	buggy, err := prog.ProfileContext(ctx, vprof.RunSpec{Inputs: []int64{0, 40}}, sch)
	if err != nil {
		log.Fatal(err)
	}
	params := vprof.DefaultParams()
	params.Workers = 2
	report, err := vprof.AnalyzeContext(ctx, vprof.AnalyzeRequest{
		Program: prog,
		Schema:  sch,
		Normal:  []*vprof.Profile{normal},
		Buggy:   []*vprof.Profile{buggy},
		Params:  &params,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("driver rank:", report.Rank("driver"))
	fmt.Println("discount:", report.Func("driver").Discount)
	// Output:
	// driver rank: 1
	// discount: 0
}

// ExampleDiagnose runs the full Figure 2 workflow and reports where the true
// root cause ranks.
func ExampleDiagnose() {
	prog, err := vprof.Compile("example.vp", exampleSource)
	if err != nil {
		log.Fatal(err)
	}
	sch := prog.GenerateSchema(vprof.SchemaOptions{})
	report, err := vprof.Diagnose(prog, sch,
		vprof.RunSpec{Inputs: []int64{8, 40}}, // normal: threshold 8
		vprof.RunSpec{Inputs: []int64{0, 40}}, // buggy: threshold 0
		3, vprof.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("driver rank:", report.Rank("driver"))
	fmt.Println("discount:", report.Func("driver").Discount)
	// Output:
	// driver rank: 1
	// discount: 0
}
