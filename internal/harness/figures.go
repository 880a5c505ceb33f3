package harness

import (
	"fmt"
	"strings"
	"time"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
)

// Figure6Series is one variable's value samples over time for the normal and
// buggy executions (paper Figure 6).
type Figure6Series struct {
	ID, Func, Variable string
	NormalTicks        []int64
	NormalValues       []int64
	BuggyTicks         []int64
	BuggyValues        []int64
}

// Figure6 extracts the paper's two example series: available_mem for b1
// (MDEV-21826) and numclients for b12 (Redis-8668).
func Figure6() ([]Figure6Series, error) {
	specs := []struct {
		id, fn, name string
	}{
		{"b1", "recv_group_scan_log_recs", "available_mem"},
		{"b12", "#global", "numclients"},
	}
	var out []Figure6Series
	for _, sp := range specs {
		w := bugs.ByID(sp.id)
		b, err := w.Build()
		if err != nil {
			return nil, err
		}
		np, _ := b.ProfileNormal(0)
		bp, _ := b.ProfileBuggy(0)
		s := Figure6Series{ID: sp.id, Func: sp.fn, Variable: sp.name}
		s.NormalTicks, s.NormalValues = seriesOf(np, sp.fn, sp.name)
		s.BuggyTicks, s.BuggyValues = seriesOf(bp, sp.fn, sp.name)
		out = append(out, s)
	}
	return out, nil
}

// seriesOf extracts per-alarm (tick, value) pairs of one variable.
func seriesOf(p *sampler.Profile, fn, name string) ([]int64, []int64) {
	var ticks, vals []int64
	var last int64 = -1
	for _, s := range p.VarSamples(fn, name) {
		if s.Tick == last {
			continue
		}
		last = s.Tick
		ticks = append(ticks, s.Tick)
		vals = append(vals, s.Value)
	}
	return ticks, vals
}

// RenderFigure6 prints each series as an ASCII scatter sketch plus summary
// statistics — the textual equivalent of the paper's scatter plots.
func RenderFigure6(series []Figure6Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6. Value samples for a variable for two performance issues.\n")
	for _, s := range series {
		fmt.Fprintf(&b, "\n(%s) samples of %s in %s\n", s.ID, s.Variable, s.Func)
		fmt.Fprintf(&b, "  normal: %s\n", sketch(s.NormalValues))
		fmt.Fprintf(&b, "  buggy:  %s\n", sketch(s.BuggyValues))
	}
	return b.String()
}

func sketch(vals []int64) string {
	if len(vals) == 0 {
		return "(no samples)"
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// Downsample to 60 columns, mapping values to a 0-9 scale.
	const cols = 60
	out := make([]byte, 0, cols)
	for c := 0; c < cols && c < len(vals); c++ {
		idx := c * len(vals) / cols
		if len(vals) < cols {
			idx = c
		}
		v := vals[idx]
		level := int64(0)
		if hi > lo {
			level = (v - lo) * 9 / (hi - lo)
		}
		out = append(out, byte('0'+level))
	}
	return fmt.Sprintf("n=%-6d min=%-8d max=%-8d [%s]", len(vals), lo, hi, out)
}

// Figure7Row is one workload's runtime-overhead measurement: wall-clock time
// without profiling, with gprof-style PC sampling only, and with full vProf
// value sampling, normalized to the unprofiled run (paper Figure 7).
type Figure7Row struct {
	ID          string
	BaseMs      float64
	GprofRatio  float64
	VProfRatio  float64
	SampleCount int
}

// Figure7 measures profiling overhead per workload. reps > 1 averages
// wall-clock noise.
func Figure7(reps int) ([]Figure7Row, error) {
	if reps <= 0 {
		reps = 3
	}
	var rows []Figure7Row
	for _, w := range bugs.All() {
		b, err := w.Build()
		if err != nil {
			return nil, err
		}
		base := measureWall(reps, func() {
			sampler.Run(b.Prog, w.BuggyConfig(0))
		})
		var lastProf *sampler.Profile
		gprof := measureWall(reps, func() {
			sampler.ProfileRun(b.Prog, nil, w.BuggyConfig(0), sampler.Options{Interval: bugs.DefaultInterval}).Recycle()
		})
		vprof := measureWall(reps, func() {
			lastProf, _ = bugs.ProfileMerged(b.Prog, b.Meta, w.BuggyConfig(0))
		})
		row := Figure7Row{ID: w.ID, BaseMs: base}
		if base > 0 {
			row.GprofRatio = gprof / base
			row.VProfRatio = vprof / base
		}
		if lastProf != nil {
			row.SampleCount = len(lastProf.Samples)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure7 formats the normalized-overhead series.
func RenderFigure7(rows []Figure7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7. Profiling overhead for performance issues (wall time, normalized to no profiling).\n\n")
	fmt.Fprintf(&b, "%-4s %12s %12s %12s %10s\n", "ID", "base(ms)", "w/ gprof", "w/ vProf", "samples")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %12.2f %12.2f %12.2f %10d\n", r.ID, r.BaseMs, r.GprofRatio, r.VProfRatio, r.SampleCount)
	}
	return b.String()
}

// Figure8Point is one sensitivity measurement: a parameter value, the
// number of issues whose root cause ranked in the top five, and the mean
// root-cause rank (a finer-grained sensitivity signal).
type Figure8Point struct {
	Setting   float64
	Diagnosed int
	MeanRank  float64
}

// Figure8Result holds both parameter sweeps.
type Figure8Result struct {
	DefaultDiscount []Figure8Point
	ValidDiscount   []Figure8Point
}

// Figure8 reproduces the sensitivity study: profiles are collected once per
// workload and re-analyzed under each parameter setting (the sweep varies
// only post-profiling analysis). Profile collection and per-workload
// re-analysis fan out over a pool of workers (0 resolves via
// internal/parallel). Ranks are integers and accumulate in workload order,
// so both sweeps are identical for any worker count. (Figure7 deliberately
// has no worker pool: it measures wall-clock overhead, which concurrent
// load would skew.)
func Figure8(workers int) (*Figure8Result, error) {
	workers = parallel.Workers(workers)
	type captured struct {
		w  *bugs.Workload
		in analysis.Input
	}
	inputs, err := perWorkload(workers, bugs.All(), func(b *bugs.Built) (captured, error) {
		// One worker per workload: the fan-out is across workloads.
		normal, buggy := b.Profiles(b.NormalMeta, b.Meta, 1)
		return captured{b.W, analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema, Normal: normal, Buggy: buggy}}, nil
	})
	if err != nil {
		return nil, err
	}

	measureAt := func(p analysis.Params) (Figure8Point, error) {
		type verdict struct {
			rank int
			n    int
		}
		verdicts, err := parallel.MapErr(workers, len(inputs), func(i int) (verdict, error) {
			c := inputs[i]
			rep, err := analysis.Analyze(c.in, p)
			if err != nil {
				return verdict{}, err
			}
			return verdict{rep.Rank(c.w.RootFunc), len(rep.Funcs)}, nil
		})
		if err != nil {
			return Figure8Point{}, err
		}
		pt := Figure8Point{}
		var rankSum, ranked float64
		for _, v := range verdicts {
			r := v.rank
			if r >= 1 && r <= 5 {
				pt.Diagnosed++
			}
			if r == 0 {
				r = v.n + 1 // NR: pessimistic rank
			}
			rankSum += float64(r)
			ranked++
		}
		pt.MeanRank = rankSum / ranked
		return pt, nil
	}

	res := &Figure8Result{}
	for dd := 0.1; dd <= 1.001; dd += 0.1 {
		p := analysis.DefaultParams()
		p.DefaultDiscount = dd
		p.Workers = 1 // measureAt already fans out per workload
		pt, err := measureAt(p)
		if err != nil {
			return nil, err
		}
		pt.Setting = dd
		res.DefaultDiscount = append(res.DefaultDiscount, pt)
	}
	for vd := 0.1; vd <= 1.001; vd += 0.1 {
		p := analysis.DefaultParams()
		p.ValidDiscount = vd
		p.Workers = 1
		pt, err := measureAt(p)
		if err != nil {
			return nil, err
		}
		pt.Setting = vd
		res.ValidDiscount = append(res.ValidDiscount, pt)
	}
	return res, nil
}

// RenderFigure8 formats the sensitivity sweeps.
func RenderFigure8(r *Figure8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8. Sensitivity of settings for discount parameters (issues with root cause in top-5, out of 15).\n\n")
	fmt.Fprintf(&b, "%-18s", "setting")
	for _, p := range r.DefaultDiscount {
		fmt.Fprintf(&b, "%5.1f", p.Setting)
	}
	fmt.Fprintf(&b, "\n%-18s", "DefaultDiscount")
	for _, p := range r.DefaultDiscount {
		fmt.Fprintf(&b, "%5d", p.Diagnosed)
	}
	fmt.Fprintf(&b, "\n%-18s", "  mean rank")
	for _, p := range r.DefaultDiscount {
		fmt.Fprintf(&b, "%5.1f", p.MeanRank)
	}
	fmt.Fprintf(&b, "\n%-18s", "ValidDiscount")
	for _, p := range r.ValidDiscount {
		fmt.Fprintf(&b, "%5d", p.Diagnosed)
	}
	fmt.Fprintf(&b, "\n%-18s", "  mean rank")
	for _, p := range r.ValidDiscount {
		fmt.Fprintf(&b, "%5.1f", p.MeanRank)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// measureWall times fn over reps repetitions and returns the mean in
// milliseconds.
func measureWall(reps int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(start).Microseconds()) / float64(reps) / 1000
}
