package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"vprof/internal/service"
	"vprof/internal/store"
)

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	out, err := captureStdoutErr(t, fn)
	if err != nil {
		t.Fatalf("command failed: %v", err)
	}
	return out
}

// captureStdoutErr is captureStdout for commands whose error carries an
// intentional exit code (lint/check convention).
func captureStdoutErr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	errCh := make(chan error, 1)
	go func() { errCh <- fn() }()
	ferr := <-errCh
	w.Close()
	out, _ := io.ReadAll(r)
	return string(out), ferr
}

func TestParseInputs(t *testing.T) {
	got, err := parseInputs(" 1, 2 ,30")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 30 {
		t.Fatalf("parseInputs = %v, %v", got, err)
	}
	if got, err := parseInputs(""); err != nil || got != nil {
		t.Fatalf("empty inputs = %v, %v", got, err)
	}
	if _, err := parseInputs("1,x"); err == nil {
		t.Fatal("expected error for non-numeric input")
	}
}

func TestSplitFileArg(t *testing.T) {
	file, rest := splitFileArg([]string{"prog.vp", "-inputs", "4"})
	if file != "prog.vp" || len(rest) != 2 {
		t.Fatalf("split = %q %v", file, rest)
	}
	file, rest = splitFileArg([]string{"-inputs", "4", "prog.vp"})
	if file != "" || len(rest) != 3 {
		t.Fatalf("flag-first split = %q %v", file, rest)
	}
	file, rest = splitFileArg(nil)
	if file != "" || rest != nil {
		t.Fatalf("empty split = %q %v", file, rest)
	}
}

func TestFileArg(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Parse([]string{"prog.vp"})
	if f, err := fileArg("", fs, "t"); err != nil || f != "prog.vp" {
		t.Fatalf("trailing file: %q %v", f, err)
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	fs2.Parse(nil)
	if f, err := fileArg("pre.vp", fs2, "t"); err != nil || f != "pre.vp" {
		t.Fatalf("leading file: %q %v", f, err)
	}
	if _, err := fileArg("", fs2, "t"); err == nil {
		t.Fatal("missing file accepted")
	}
	fs3 := flag.NewFlagSet("t", flag.ContinueOnError)
	fs3.Parse([]string{"a.vp"})
	if _, err := fileArg("b.vp", fs3, "t"); err == nil {
		t.Fatal("two files accepted")
	}
}

func TestSchemaOpts(t *testing.T) {
	opts := schemaOpts("f,g", true)
	if !opts.SkipGlobals || len(opts.Functions) != 2 {
		t.Fatalf("opts = %+v", opts)
	}
	if opts := schemaOpts("", false); opts.Functions != nil {
		t.Fatalf("empty funcs: %+v", opts)
	}
}

// TestSubcommandsEndToEnd drives the real subcommand functions against the
// checked-in example program.
func TestSubcommandsEndToEnd(t *testing.T) {
	prog := "../../testdata/recovery.vp"
	if err := cmdSchema([]string{prog}); err != nil {
		t.Fatalf("schema: %v", err)
	}
	if err := cmdRun([]string{prog, "-inputs", "40"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	nDir := t.TempDir()
	bDir := t.TempDir()
	if err := cmdProfile([]string{prog, "-inputs", "40", "-max-ticks", "200000", "-out", nDir}); err != nil {
		t.Fatalf("profile normal: %v", err)
	}
	if err := cmdProfile([]string{prog, "-inputs", "90", "-max-ticks", "200000", "-out", bDir}); err != nil {
		t.Fatalf("profile buggy: %v", err)
	}
	if err := cmdAnalyze([]string{prog, "-normal", nDir, "-buggy", bDir, "-top", "3"}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if err := cmdAnalyze([]string{prog, "-normal", nDir}); err == nil {
		t.Fatal("analyze without -buggy accepted")
	}
	if err := cmdDiagnose([]string{prog, "-normal", "40", "-buggy", "90", "-runs", "2", "-max-ticks", "200000"}); err != nil {
		t.Fatalf("diagnose: %v", err)
	}
}

// TestSchemaScoreAndVerify drives the new schema flags against the spill
// workload, whose frame layout forces both DWARF failure modes.
func TestSchemaScoreAndVerify(t *testing.T) {
	prog := "../../testdata/spill.vp"
	scored := captureStdout(t, func() error {
		return cmdSchema([]string{prog, "-score"})
	})
	// Scored lines carry 7 comma-separated fields.
	firstLine := strings.SplitN(scored, "\n", 2)[0]
	if got := len(strings.Split(firstLine, ",")); got != 7 {
		t.Errorf("scored line has %d fields, want 7: %q", got, firstLine)
	}
	// Deterministic output.
	if again := captureStdout(t, func() error {
		return cmdSchema([]string{prog, "-score"})
	}); again != scored {
		t.Error("schema -score output not deterministic")
	}

	verify := captureStdout(t, func() error {
		return cmdSchema([]string{prog, "-verify"})
	})
	if !strings.Contains(verify, "schema/DWARF coverage:") {
		t.Fatalf("-verify printed no coverage report:\n%s", verify)
	}
	if !strings.Contains(verify, "NO location info") {
		t.Errorf("-verify missed the stack-spill variable:\n%s", verify)
	}
	if !strings.Contains(verify, "gaps at") {
		t.Errorf("-verify missed the caller-saved location gaps:\n%s", verify)
	}

	pruned := captureStdout(t, func() error {
		return cmdSchema([]string{prog, "-score", "-max-entries", "3"})
	})
	if !strings.Contains(pruned, "pruned by score") {
		t.Errorf("pruning stats missing:\n%s", pruned)
	}
	lines := 0
	for _, l := range strings.Split(pruned, "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines++
		}
	}
	if lines != 3 {
		t.Errorf("-max-entries 3 printed %d entries:\n%s", lines, pruned)
	}
}

func TestLintCommand(t *testing.T) {
	out, err := captureStdoutErr(t, func() error {
		return cmdLint([]string{"../../testdata/spill.vp"})
	})
	if !strings.Contains(out, "lint:") {
		t.Fatalf("lint output:\n%s", out)
	}
	// The spill workload has no-location and location-gap findings.
	if !strings.Contains(out, "no-location") || !strings.Contains(out, "location-gap") {
		t.Errorf("lint missed coverage findings:\n%s", out)
	}
	// Findings drive the exit code now, like check: 1 when warnings fired.
	var xe exitError
	if !errors.As(err, &xe) || xe.code != 1 {
		t.Errorf("lint with findings returned %v, want exit code 1", err)
	}
	if err := cmdLint(nil); err == nil {
		t.Error("lint without a file accepted")
	}
}

func TestCheckCommand(t *testing.T) {
	// The smells demo trips warning-severity rules: exit code 1.
	out, err := captureStdoutErr(t, func() error {
		return cmdCheck([]string{"../../testdata/smells.vp", "-costs"})
	})
	var xe exitError
	if !errors.As(err, &xe) || xe.code != 1 {
		t.Fatalf("check on smells.vp returned %v, want exit code 1", err)
	}
	if !strings.Contains(out, "check:") || !strings.Contains(out, "quadratic-nest") {
		t.Errorf("check output missing findings:\n%s", out)
	}
	if !strings.Contains(out, ": cost ") {
		t.Errorf("-costs printed no cost bounds:\n%s", out)
	}

	// Multi-file runs merge into one report.
	multi, _ := captureStdoutErr(t, func() error {
		return cmdCheck([]string{"../../testdata/smells.vp", "../../testdata/recovery.vp"})
	})
	if strings.Count(multi, "check:") != 1 {
		t.Errorf("multi-file check printed %d headers, want 1:\n%s", strings.Count(multi, "check:"), multi)
	}
	if !strings.Contains(multi, "recovery.vp") || !strings.Contains(multi, "smells.vp") {
		t.Errorf("merged report missing a file:\n%s", multi)
	}

	// Flags may trail the file list: flag parsing must resume after files.
	trail, err := captureStdoutErr(t, func() error {
		return cmdCheck([]string{"../../testdata/smells.vp", "../../testdata/recovery.vp", "-costs"})
	})
	if !errors.As(err, &xe) || xe.code != 1 {
		t.Fatalf("trailing -costs: err = %v, want exit code 1", err)
	}
	if !strings.Contains(trail, "recovery.vp: cost ") || !strings.Contains(trail, "smells.vp: cost ") {
		t.Errorf("trailing -costs printed no bounds for both files:\n%s", trail)
	}

	if err := cmdCheck(nil); err == nil {
		t.Error("check without a file accepted")
	}
}

// captureStderr silences run()'s usage spam during exit-code tests.
func captureStderr(t *testing.T, fn func() int) int {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	code := fn()
	w.Close()
	io.Copy(io.Discard, r)
	return code
}

// TestExitCodes pins the satellite fix: unknown subcommands and flags exit
// non-zero with a usage message instead of falling through.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{nil, 2},                                            // no subcommand
		{[]string{"frobnicate"}, 2},                         // unknown subcommand
		{[]string{"run", "-no-such-flag"}, 2},               // unknown flag
		{[]string{"run"}, 2},                                // missing program file
		{[]string{"run", "a.vp", "b.vp"}, 2},                // too many program files
		{[]string{"run", "a.vp", "-engine", "register"}, 2}, // removed engine selector
		{[]string{"analyze", "x.vp", "-sketches"}, 2},       // removed offline sketch knob
		{[]string{"diagnose", "x.vp", "-sketches"}, 2},      // no sketch knob offline
		{[]string{"serve", "-sketches"}, 2},                 // removed server-wide sketch knob
		{[]string{"query"}, 2},                              // missing query subcommand
		{[]string{"query", "wat"}, 2},                       // unknown query subcommand
		{[]string{"push", "-label", "x"}, 2},                // bad label
		{[]string{"run", "no-such-file.vp"}, 1},             // execution failure
		{[]string{"serve", "-log-level", "loud"}, 2},        // bad log level
		{[]string{"serve", "-log-format", "xml"}, 2},        // bad log encoding
		{[]string{"help"}, 0},
		{[]string{"--help"}, 0},
		{[]string{"run", "-h"}, 0}, // flag-level help is not an error
	}
	for _, tc := range cases {
		got := captureStderr(t, func() int { return run(tc.args) })
		if got != tc.want {
			t.Errorf("run(%q) = %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestExitCodeClassification pins the 0/1/2 convention: help is success,
// usage mistakes are 2, and every execution failure — including the typed
// service sentinels — is 1.
func TestExitCodeClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"flag help", flag.ErrHelp, 0},
		{"usage", usageError{errors.New("bad flag")}, 2},
		{"wrapped usage", fmt.Errorf("serve: %w", usageError{errors.New("bad level")}), 2},
		{"plain failure", errors.New("boom"), 1},
		{"not found", fmt.Errorf("query: %w", service.ErrNotFound), 1},
		{"invalid bundle", fmt.Errorf("push: %w", service.ErrInvalidBundle), 1},
		{"baseline missing", service.ErrBaselineMissing, 1},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestPushQueryEndToEnd drives the push and query subcommands against an
// in-process service daemon serving the checked-in example program.
func TestPushQueryEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	resolver, err := buildResolver([]string{"../../testdata/recovery.vp"}, false)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{Store: st, Resolver: resolver})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	prog := "../../testdata/recovery.vp"
	pushOut := captureStdout(t, func() error {
		return cmdPush([]string{prog, "-server", hs.URL, "-label", "normal",
			"-inputs", "40", "-runs", "2", "-max-ticks", "200000"})
	})
	if strings.Count(pushOut, "stored") != 2 {
		t.Fatalf("push output:\n%s", pushOut)
	}
	captureStdout(t, func() error {
		return cmdPush([]string{prog, "-server", hs.URL, "-label", "buggy",
			"-inputs", "90", "-max-ticks", "200000"})
	})
	// Artifact-directory mode: profile to disk, then push the directory.
	dir := t.TempDir()
	if err := cmdProfile([]string{prog, "-inputs", "90", "-max-ticks", "200000", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	dirOut := captureStdout(t, func() error {
		return cmdPush([]string{"-server", hs.URL, "-label", "candidate",
			"-workload", "recovery", "-run", "disk", "-dir", dir})
	})
	if !strings.Contains(dirOut, "recovery/candidate run disk") {
		t.Fatalf("dir push output:\n%s", dirOut)
	}

	wls := captureStdout(t, func() error {
		return cmdQuery([]string{"workloads", "-server", hs.URL})
	})
	if !strings.Contains(wls, "recovery") {
		t.Fatalf("workloads output:\n%s", wls)
	}
	diag := captureStdout(t, func() error {
		return cmdQuery([]string{"diagnose", "-server", hs.URL, "-workload", "recovery", "-top", "5"})
	})
	if !strings.Contains(diag, "report r-") || !strings.Contains(diag, "2 candidates") {
		t.Fatalf("diagnose output:\n%s", diag)
	}
	// Second diagnosis is memoized; stats show the hit.
	diag2 := captureStdout(t, func() error {
		return cmdQuery([]string{"diagnose", "-server", hs.URL, "-workload", "recovery", "-top", "5"})
	})
	if !strings.Contains(diag2, "(cached)") {
		t.Fatalf("second diagnose not cached:\n%s", diag2)
	}
	stats := captureStdout(t, func() error {
		return cmdQuery([]string{"stats", "-server", hs.URL})
	})
	if !strings.Contains(stats, "memo cache hits 1") {
		t.Fatalf("stats output:\n%s", stats)
	}
	// Report id round trip.
	id := strings.TrimSuffix(strings.Fields(diag)[1], ":")
	rep := captureStdout(t, func() error {
		return cmdQuery([]string{"report", "-server", hs.URL, id})
	})
	if !strings.Contains(rep, "workload recovery") {
		t.Fatalf("report output:\n%s", rep)
	}
}
