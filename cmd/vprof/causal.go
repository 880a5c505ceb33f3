package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"

	vprof "vprof"
	"vprof/internal/bugs"
	"vprof/internal/causal"
	"vprof/internal/service"
)

// cmdCausal runs Coz-style virtual-speedup experiments: re-execute the
// workload with one candidate's tick costs scaled down and measure the
// end-to-end runtime change, sweeping a range of speedup factors per
// candidate. The target is a .vp program file or a reproduced-issue id
// (b1..b15, u1..u3); with -server the sweep runs on a vprof service.
func cmdCausal(args []string) error {
	target, args := splitFileArg(args)
	fs := flag.NewFlagSet("causal", flag.ContinueOnError)
	speedups := fs.String("speedups", "", "comma-separated virtual speedup percentages, each in (0,100) (default 10,25,50,75,90,95)")
	gran := fs.String("granularity", "func", "experiment granularity: func (inclusive) or block (exclusive)")
	funcs := fs.String("funcs", "", "comma-separated candidate functions (bypasses the exclusive-share gate)")
	workers := fs.Int("workers", 0, "experiment worker pool (0 = VPROF_WORKERS or GOMAXPROCS, 1 = sequential)")
	top := fs.Int("top", 10, "ranking rows to print")
	curve := fs.String("curve", "", "also print the named candidate's full speedup curve")
	server := fs.String("server", "", "run the sweep on a vprof service at this base URL")
	inputs := fs.String("inputs", "", "comma-separated workload inputs (local .vp targets)")
	seed := fs.Uint64("seed", 1, "PRNG seed (local .vp targets)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	target, err := fileArg(target, fs, "causal")
	if err != nil {
		return usageError{fmt.Errorf("causal: need one program file or workload id")}
	}
	percents, err := parsePercents(*speedups)
	if err != nil {
		return usageError{err}
	}
	var fns []string
	if *funcs != "" {
		fns = strings.Split(*funcs, ",")
	}

	if *server != "" {
		c := service.NewClient(*server)
		resp, err := c.Causal(service.CausalRequest{
			Workload:    target,
			Speedups:    percents,
			Granularity: *gran,
			Funcs:       fns,
			Top:         *top,
		})
		if err != nil {
			return err
		}
		fmt.Print(resp.Render)
		if *curve != "" {
			return printCurveFrom(resp.Curves, *curve)
		}
		return nil
	}

	granularity, err := causal.ParseGranularity(*gran)
	if err != nil {
		return usageError{err}
	}
	var fractions []float64
	for _, p := range percents {
		fractions = append(fractions, p/100)
	}
	opts := causal.Options{
		Speedups:    fractions,
		Granularity: granularity,
		Funcs:       fns,
		Workers:     *workers,
	}

	var rep *causal.Report
	if w := bugs.ByID(target); w != nil && !strings.HasSuffix(target, ".vp") {
		b, err := w.Build()
		if err != nil {
			return err
		}
		rep, err = causal.Run(context.Background(), b.Prog, w.BuggyConfig(0), opts)
		if err != nil {
			return err
		}
	} else {
		prog, err := compileFile(target)
		if err != nil {
			return err
		}
		in, err := parseInputs(*inputs)
		if err != nil {
			return err
		}
		rep, err = prog.Causal(vprof.RunSpec{Inputs: in, Seed: *seed}, opts)
		if err != nil {
			return err
		}
	}
	fmt.Print(causal.Render(rep, *top))
	if *curve != "" {
		return printCurveFrom(rep.Curves, *curve)
	}
	return nil
}

// parsePercents parses a comma-separated speedup percentage list, each in
// (0,100). Empty means the engine default.
func parsePercents(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad speedup %q: %w", part, err)
		}
		if v <= 0 || v >= 100 {
			return nil, fmt.Errorf("speedup %v%% outside (0,100)", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// printCurveFrom prints one candidate's full speedup curve from an already
// computed sweep.
func printCurveFrom(curves []causal.Curve, name string) error {
	for i := range curves {
		if curves[i].Name == name {
			fmt.Println()
			fmt.Print(causal.RenderCurve(&curves[i]))
			return nil
		}
	}
	return fmt.Errorf("causal: no curve for %q (gated out or unknown; try -funcs %s)", name, name)
}
