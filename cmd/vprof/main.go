// Command vprof is the command-line front end to the value-assisted cost
// profiler, mirroring the paper's workflow (Figure 2):
//
//	vprof schema prog.vp                      # generate the monitoring schema
//	vprof run prog.vp -inputs 40              # execute without profiling
//	vprof profile prog.vp -inputs 40 -out dir # profile one execution to dir
//	vprof diagnose prog.vp -normal 40 -buggy 90 -root hint
//
// diagnose runs the full pipeline: five normal and five buggy profiling
// executions, post-profiling analysis, and the annotated ranking.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	vprof "vprof"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// commands is the subcommand dispatch table.
var commands = map[string]func([]string) error{
	"schema":   cmdSchema,
	"lint":     cmdLint,
	"check":    cmdCheck,
	"run":      cmdRun,
	"profile":  cmdProfile,
	"disasm":   cmdDisasm,
	"analyze":  cmdAnalyze,
	"diagnose": cmdDiagnose,
	"causal":   cmdCausal,
	"serve":    cmdServe,
	"node":     cmdNode,
	"push":     cmdPush,
	"query":    cmdQuery,
	"fsck":     cmdFsck,
}

// commandNames lists the dispatch table's keys, sorted, for the
// unknown-command diagnostic.
func commandNames() []string {
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// usageError marks failures that are the caller's command line rather than
// the tool's execution: they print the usage message and exit 2, like an
// unknown flag does.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// exitError carries an explicit process exit code for subcommands whose
// codes mean more than pass/fail — fsck uses 1 for "issues found" and 2
// for "unrecoverable", mirroring the filesystem fsck convention. A nil
// wrapped error means the command already printed its own report.
type exitError struct {
	code int
	err  error
}

func (e exitError) Error() string {
	if e.err != nil {
		return e.err.Error()
	}
	return fmt.Sprintf("exit status %d", e.code)
}
func (e exitError) Unwrap() error { return e.err }

// run dispatches one invocation and returns the process exit code: 0 on
// success, 2 for command-line mistakes (unknown subcommand or flag, missing
// arguments), 1 for execution failures.
func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "help", "-h", "--help":
		usage()
		return 0
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(os.Stderr, "vprof: unknown command %q (commands: %s)\n",
			args[0], strings.Join(commandNames(), ", "))
		usage()
		return 2
	}
	if err := cmd(args[1:]); err != nil {
		var xe exitError
		if errors.As(err, &xe) {
			if xe.err != nil {
				fmt.Fprintf(os.Stderr, "vprof %s: %v\n", args[0], xe.err)
			}
			return xe.code
		}
		switch exitCode(err) {
		case 0:
			return 0
		case 2:
			fmt.Fprintf(os.Stderr, "vprof %s: %v\n", args[0], err)
			usage()
			return 2
		}
		fmt.Fprintf(os.Stderr, "vprof: %v\n", err)
		return 1
	}
	return 0
}

// exitCode derives the process exit code from the error chain alone — no
// message matching: 0 for nil or an explicit help request, 2 for
// command-line mistakes (usageError), 1 for every execution failure. The
// service client's typed sentinels (service.ErrNotFound and friends) are
// execution failures: the command line was fine, the server disagreed.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// parseFlags parses a subcommand's flag set, classifying parse failures
// (unknown flags, bad values) as usage errors. The flag package already
// printed its own diagnostic and the subcommand's defaults.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return usageError{err}
	}
	return nil
}

// usageText lists every subcommand with every flag it defines.
const usageText = `usage:
  vprof schema <prog.vp> [-funcs f1,f2] [-no-globals] [-score] [-verify]
                         [-min-score x] [-max-entries n] [-static-priors]
  vprof lint <prog.vp>
  vprof check <prog.vp> [prog2.vp ...] [-costs]
  vprof run <prog.vp> [-inputs a,b,...] [-seed n] [-max-ticks n]
  vprof profile <prog.vp> [-inputs ...] [-seed n] [-max-ticks n] [-out dir]
                          [-interval n] [-funcs f1,f2]
  vprof disasm <prog.vp>
  vprof analyze <prog.vp> -normal dir[,dir...] -buggy dir[,dir...] [-top n] [-workers n]
                          [-funcs f1,f2]
  vprof diagnose <prog.vp> -normal a,b -buggy a,b [-runs n] [-top n] [-funcs f1,f2]
                 [-max-ticks n] [-root func] [-workers n]
  vprof causal <prog.vp|bug-id> [-speedups 10,50,95] [-granularity func|block]
               [-funcs f1,f2] [-workers n] [-top n] [-curve f] [-server url]
               [-inputs a,b] [-seed n]
  vprof serve [-addr host:port] [-store dir] [-bugs] [-workers n]
              [-analysis-workers n] [-request-timeout d] [-max-queue n]
              [-drain-timeout d] [-log-level l] [-log-format text|json]
              [-cluster id=url,...] [-replicas n] [-write-quorum n] [-shards n]
              [-top n] [-baseline-cap n] [prog.vp ...]
  vprof node -id name [-addr host:port] [-store dir] [-bugs]
             [-drain-timeout d] [-log-level l] [-log-format text|json]
             [prog.vp ...]
  vprof push <prog.vp> -server url -label normal|candidate [-workload w]
             [-inputs a,b] [-runs n] [-run id] [-seed n] [-max-ticks n]
             [-interval n] [-funcs f1,f2]
             | push -server url -label l -workload w -run id -dir artifacts
  vprof query workloads [-server url]
  vprof query diagnose -workload w [-server url] [-candidates a,b] [-top n]
                       [-sketches]
  vprof query report <id> [-server url]
  vprof query stats [-server url]
  vprof fsck [-store dir] [-repair] [-cluster]
`

func usage() { fmt.Fprint(os.Stderr, usageText) }

// splitFileArg allows the program file to precede the flags (vprof profile
// prog.vp -inputs ...): it pops a leading non-flag argument.
func splitFileArg(args []string) (string, []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

// fileArg resolves the program file from either position.
func fileArg(pre string, fs *flag.FlagSet, cmd string) (string, error) {
	switch {
	case pre != "" && fs.NArg() == 0:
		return pre, nil
	case pre == "" && fs.NArg() == 1:
		return fs.Arg(0), nil
	}
	return "", usageError{fmt.Errorf("%s: need exactly one program file", cmd)}
}

func compileFile(path string) (*vprof.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return vprof.Compile(path, string(src))
}

func parseInputs(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, usageError{fmt.Errorf("bad input %q: %w", p, err)}
		}
		out = append(out, v)
	}
	return out, nil
}

func schemaOpts(funcs string, noGlobals bool) vprof.SchemaOptions {
	opts := vprof.SchemaOptions{SkipGlobals: noGlobals}
	if funcs != "" {
		opts.Functions = strings.Split(funcs, ",")
	}
	return opts
}

func cmdSchema(args []string) error {
	file, args := splitFileArg(args)
	fs := flag.NewFlagSet("schema", flag.ContinueOnError)
	funcs := fs.String("funcs", "", "comma-separated component functions to monitor")
	noGlobals := fs.Bool("no-globals", false, "do not monitor globals")
	score := fs.Bool("score", false, "append the performance-relevance score to every entry")
	verify := fs.Bool("verify", false, "report per-variable debug-location coverage (gaps, dropped entries)")
	minScore := fs.Float64("min-score", 0, "drop entries scoring below this bound")
	maxEntries := fs.Int("max-entries", 0, "keep only the N highest-scoring entries (0 = all)")
	staticPriors := fs.Bool("static-priors", false, "fold abstract-interpretation value evidence into the relevance scores")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	file, err := fileArg(file, fs, "schema")
	if err != nil {
		return err
	}
	prog, err := compileFile(file)
	if err != nil {
		return err
	}
	opts := schemaOpts(*funcs, *noGlobals)
	opts.MinScore = *minScore
	opts.MaxEntries = *maxEntries
	opts.StaticPriors = *staticPriors
	sch := prog.GenerateSchema(opts)
	if *score {
		fmt.Print(vprof.FormatSchemaScored(sch))
	} else {
		fmt.Print(vprof.FormatSchema(sch))
	}
	fmt.Printf("# %d variables; %d metadata entries", len(sch.Entries), len(prog.Metadata(sch)))
	if sch.Pruned > 0 {
		fmt.Printf("; %d pruned by score", sch.Pruned)
	}
	fmt.Println()
	if *verify {
		fmt.Print(prog.VerifySchema(sch).Render())
	}
	return nil
}

// cmdLint runs the IR-level static checks: unreachable code, exit-less
// loops, constant/dead monitored variables, and debug-location coverage
// problems (the paper's DWARF-gap phenomenon, §3.2).
func cmdLint(args []string) error {
	file, args := splitFileArg(args)
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	file, err := fileArg(file, fs, "lint")
	if err != nil {
		return err
	}
	prog, err := compileFile(file)
	if err != nil {
		return err
	}
	rep := prog.Lint()
	fmt.Print(rep.Render())
	if rep.ExitCode() != 0 {
		return exitError{code: rep.ExitCode()}
	}
	return nil
}

// cmdCheck runs the abstract-interpretation perf-smell checker over one or
// more programs and prints one merged report. Exit codes follow the shared
// lint/check convention: 0 clean, 1 findings at warning severity or above,
// 2 usage errors.
func cmdCheck(args []string) error {
	file, args := splitFileArg(args)
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	costs := fs.Bool("costs", false, "print per-function static cost bounds")
	// Files and flags may interleave (flag parsing stops at the first
	// non-flag argument): gather non-flag args, re-parse the remainder.
	var files []string
	if file != "" {
		files = append(files, file)
	}
	for len(args) > 0 {
		if !strings.HasPrefix(args[0], "-") {
			files = append(files, args[0])
			args = args[1:]
			continue
		}
		if err := parseFlags(fs, args); err != nil {
			return err
		}
		if rest := fs.Args(); len(rest) < len(args) {
			args = rest
		} else { // bare "-": flag parsing consumed nothing
			files = append(files, args[0])
			args = args[1:]
		}
	}
	if len(files) == 0 {
		return usageError{fmt.Errorf("check: need at least one program file")}
	}
	merged := &vprof.CheckReport{Tool: "check"}
	var costLines []string
	for _, path := range files {
		prog, err := compileFile(path)
		if err != nil {
			return err
		}
		merged.Merge(prog.Check())
		if *costs {
			bounds := prog.CostBounds()
			for _, fn := range prog.Functions() {
				costLines = append(costLines, fmt.Sprintf("%s: cost %s: %s", path, fn, bounds[fn]))
			}
		}
	}
	merged.Sort()
	fmt.Print(merged.Render())
	for _, l := range costLines {
		fmt.Println(l)
	}
	if merged.ExitCode() != 0 {
		return exitError{code: merged.ExitCode()}
	}
	return nil
}

func cmdRun(args []string) error {
	file, args := splitFileArg(args)
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	inputs := fs.String("inputs", "", "comma-separated workload inputs")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	maxTicks := fs.Int64("max-ticks", 0, "tick budget (0 = default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	file, err := fileArg(file, fs, "run")
	if err != nil {
		return err
	}
	prog, err := compileFile(file)
	if err != nil {
		return err
	}
	in, err := parseInputs(*inputs)
	if err != nil {
		return err
	}
	outputs, ticks, err := prog.Run(vprof.RunSpec{Inputs: in, Seed: *seed, MaxTicks: *maxTicks})
	for _, v := range outputs {
		fmt.Println(v)
	}
	fmt.Printf("# %d ticks\n", ticks)
	return err
}

func cmdProfile(args []string) error {
	file, args := splitFileArg(args)
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	inputs := fs.String("inputs", "", "comma-separated workload inputs")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	maxTicks := fs.Int64("max-ticks", 0, "tick budget (0 = default)")
	interval := fs.Int64("interval", sampler.DefaultInterval, "sampling interval in ticks")
	outDir := fs.String("out", "", "directory for gmon/gmon_var/layout artifacts")
	funcs := fs.String("funcs", "", "comma-separated component functions to monitor")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	file, err := fileArg(file, fs, "profile")
	if err != nil {
		return err
	}
	prog, err := compileFile(file)
	if err != nil {
		return err
	}
	in, err := parseInputs(*inputs)
	if err != nil {
		return err
	}
	sch := prog.GenerateSchema(schemaOpts(*funcs, false))
	p := prog.Profile(vprof.RunSpec{Inputs: in, Seed: *seed, MaxTicks: *maxTicks, Interval: *interval}, sch)
	fmt.Printf("profiled: %d alarms, %d value samples, %d monitored variables\n",
		p.NumAlarms, len(p.Samples), len(p.Layout))
	if *outDir != "" {
		if err := profilefmt.WriteDir(*outDir, p); err != nil {
			return err
		}
		fmt.Printf("wrote artifacts to %s\n", *outDir)
	}
	return nil
}

// cmdDisasm prints the compiled text section with function and basic-block
// boundaries and the line table — the view the profiler's PC ranges are
// defined over.
func cmdDisasm(args []string) error {
	file, args := splitFileArg(args)
	fs := flag.NewFlagSet("disasm", flag.ContinueOnError)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	file, err := fileArg(file, fs, "disasm")
	if err != nil {
		return err
	}
	prog, err := compileFile(file)
	if err != nil {
		return err
	}
	fmt.Print(prog.Disassemble())
	return nil
}

// cmdAnalyze runs the offline post-profiling analysis over profile
// directories previously written by `vprof profile -out` (the paper's
// workflow: profile runs dump gmon/gmon_var/layout files; the analyzer is a
// separate step).
func cmdAnalyze(args []string) error {
	file, args := splitFileArg(args)
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	normal := fs.String("normal", "", "comma-separated normal profile directories")
	buggy := fs.String("buggy", "", "comma-separated buggy profile directories")
	top := fs.Int("top", 10, "rows to print")
	funcs := fs.String("funcs", "", "comma-separated component functions (must match the profiling schema)")
	workers := fs.Int("workers", 0, "analysis worker pool (0 = VPROF_WORKERS or GOMAXPROCS, 1 = sequential)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	file, err := fileArg(file, fs, "analyze")
	if err != nil {
		return err
	}
	if *normal == "" || *buggy == "" {
		return usageError{fmt.Errorf("analyze: -normal and -buggy directories are required")}
	}
	prog, err := compileFile(file)
	if err != nil {
		return err
	}
	sch := prog.GenerateSchema(schemaOpts(*funcs, false))

	load := func(spec string) ([]*vprof.Profile, error) {
		var out []*vprof.Profile
		for _, dir := range strings.Split(spec, ",") {
			profiles, err := profilefmt.ReadDir(strings.TrimSpace(dir))
			if err != nil {
				return nil, err
			}
			if len(profiles) == 0 {
				return nil, fmt.Errorf("no profiles in %s", dir)
			}
			out = append(out, sampler.MergeProfiles(profiles))
		}
		return out, nil
	}
	normals, err := load(*normal)
	if err != nil {
		return err
	}
	buggies, err := load(*buggy)
	if err != nil {
		return err
	}
	params := vprof.DefaultParams()
	params.Workers = *workers
	report, err := vprof.AnalyzeContext(context.Background(), vprof.AnalyzeRequest{
		Program: prog,
		Schema:  sch,
		Normal:  normals,
		Buggy:   buggies,
		Params:  &params,
	})
	if err != nil {
		return err
	}
	fmt.Print(report.Render(*top))
	return nil
}

func cmdDiagnose(args []string) error {
	file, args := splitFileArg(args)
	fs := flag.NewFlagSet("diagnose", flag.ContinueOnError)
	normal := fs.String("normal", "", "inputs for the normal execution")
	buggy := fs.String("buggy", "", "inputs for the buggy execution")
	runs := fs.Int("runs", 5, "profiling runs per side")
	top := fs.Int("top", 10, "rows to print")
	maxTicks := fs.Int64("max-ticks", 0, "tick budget per run")
	funcs := fs.String("funcs", "", "comma-separated component functions to monitor")
	root := fs.String("root", "", "known root cause (prints its rank)")
	workers := fs.Int("workers", 0, "profiling/analysis worker pool (0 = VPROF_WORKERS or GOMAXPROCS, 1 = sequential)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	file, err := fileArg(file, fs, "diagnose")
	if err != nil {
		return err
	}
	prog, err := compileFile(file)
	if err != nil {
		return err
	}
	nIn, err := parseInputs(*normal)
	if err != nil {
		return err
	}
	bIn, err := parseInputs(*buggy)
	if err != nil {
		return err
	}
	sch := prog.GenerateSchema(schemaOpts(*funcs, false))
	params := vprof.DefaultParams()
	params.Workers = *workers
	report, err := vprof.Diagnose(prog, sch,
		vprof.RunSpec{Inputs: nIn, MaxTicks: *maxTicks},
		vprof.RunSpec{Inputs: bIn, MaxTicks: *maxTicks},
		*runs, params)
	if err != nil {
		return err
	}
	fmt.Print(report.Render(*top))
	if *root != "" {
		fmt.Printf("\nroot cause %s ranked %d\n", *root, report.Rank(*root))
	}
	return nil
}
