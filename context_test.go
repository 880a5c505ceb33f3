package vprof_test

import (
	"context"
	"errors"
	"testing"

	vprof "vprof"
)

// TestAnalyzeRequestEquivalence pins the API contract: AnalyzeRequest with
// every parameter/worker-count option produces byte-for-byte identical
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

	cases := map[string][]vprof.AnalyzeOption{
		"WithParams(default)": {vprof.WithParams(vprof.DefaultParams())},
		"WithWorkers(1)":      {vprof.WithWorkers(1)},
		"WithWorkers(4)":      {vprof.WithWorkers(4)},
		"params then workers": {vprof.WithParams(vprof.DefaultParams()), vprof.WithWorkers(3)},
	}
	for name, opts := range cases {
		report, err := vprof.AnalyzeContext(context.Background(), req, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := report.Render(10); got != want {
			t.Errorf("%s: report differs from the plain AnalyzeRequest form.\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestWithWorkersPreservesParams checks the option composes instead of
// resetting earlier parameter choices.
func TestWithWorkersPreservesParams(t *testing.T) {
	p := vprof.DefaultParams()
	p.PValue = 0.01
	req := vprof.AnalyzeRequest{}
	for _, opt := range []vprof.AnalyzeOption{vprof.WithParams(p), vprof.WithWorkers(2)} {
		opt(&req)
	}
	if req.Params == nil || req.Params.PValue != 0.01 || req.Params.Workers != 2 {
		t.Fatalf("params after options = %+v, want PValue 0.01 Workers 2", req.Params)
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
