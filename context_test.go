package vprof_test

import (
	"context"
	"errors"
	"testing"

	vprof "vprof"
)

// TestAnalyzeRequestEquivalence pins the API contract: AnalyzeRequest with
// default parameters at any worker count produces byte-for-byte identical
// reports.
func TestAnalyzeRequestEquivalence(t *testing.T) {
	prog := compileFacade(t)
	sch := prog.GenerateSchema(vprof.SchemaOptions{})
	normal := []*vprof.Profile{prog.Profile(vprof.RunSpec{Inputs: []int64{40}, MaxTicks: 200000}, sch)}
	buggy := []*vprof.Profile{prog.Profile(vprof.RunSpec{Inputs: []int64{90}, MaxTicks: 200000}, sch)}

	req := vprof.AnalyzeRequest{Program: prog, Schema: sch, Normal: normal, Buggy: buggy}
	base, err := vprof.AnalyzeContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Render(10)

	for _, workers := range []int{0, 1, 3, 4} {
		p := vprof.DefaultParams()
		p.Workers = workers
		req.Params = &p
		report, err := vprof.AnalyzeContext(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := report.Render(10); got != want {
			t.Errorf("workers=%d: report differs from the nil-Params form.\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestDiagnoseContextCancellation: a canceled context aborts the profiling
// fan-out and surfaces ctx.Err(); a background context reproduces Diagnose
// byte for byte.
func TestDiagnoseContextCancellation(t *testing.T) {
	prog := compileFacade(t)
	sch := prog.GenerateSchema(vprof.SchemaOptions{})
	normalSpec := vprof.RunSpec{Inputs: []int64{40}, MaxTicks: 200000}
	buggySpec := vprof.RunSpec{Inputs: []int64{90}, MaxTicks: 200000}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := vprof.DiagnoseContext(ctx, prog, sch, normalSpec, buggySpec, 3, vprof.DefaultParams()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled DiagnoseContext error = %v, want context.Canceled", err)
	}

	want, err := vprof.Diagnose(prog, sch, normalSpec, buggySpec, 3, vprof.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	got, err := vprof.DiagnoseContext(context.Background(), prog, sch, normalSpec, buggySpec, 3, vprof.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got.Render(10) != want.Render(10) {
		t.Fatalf("DiagnoseContext(Background) differs from Diagnose.\ngot:\n%s\nwant:\n%s", got.Render(10), want.Render(10))
	}
}

// TestProfileContextCancellation: a canceled context cuts the run off at
// the next sampling alarm, returning the partial profile and ctx.Err().
func TestProfileContextCancellation(t *testing.T) {
	prog := compileFacade(t)
	sch := prog.GenerateSchema(vprof.SchemaOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := vprof.RunSpec{Inputs: []int64{90}, MaxTicks: 200000}
	p, err := prog.ProfileContext(ctx, spec, sch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ProfileContext error = %v, want context.Canceled", err)
	}
	full := prog.Profile(spec, sch)
	if p.NumAlarms >= full.NumAlarms {
		t.Fatalf("canceled profile saw %d alarms, full run %d — run was not cut off", p.NumAlarms, full.NumAlarms)
	}
}
