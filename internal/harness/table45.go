package harness

import (
	"fmt"
	"sort"
	"strings"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/debuginfo"
	"vprof/internal/lang"
	"vprof/internal/parallel"
	"vprof/internal/schema"
)

// Table4Case is the diagnosis of one unresolved issue (Table 4 + §6.2).
type Table4Case struct {
	ID, Ticket, Description string
	// Findings lists, per investigated component, the top-ranked
	// functions with their most anomalous variable.
	Findings []Table4Finding
	// RootFound reports whether the ground-truth root cause surfaced in
	// the top two of some component.
	RootFound bool
	Notes     string
}

// Table4Finding is one component investigation.
type Table4Finding struct {
	Component string
	Top       []string // "func (rank, discount, variable)" summaries
	RootRank  int
}

// Table4 reproduces the unresolved-issue diagnoses: each issue is
// investigated per component (the paper's §6.2 workflow), reporting the
// top-ranked functions and their anomalous variables. Per-issue diagnoses
// fan out over a pool of workers (0 resolves via internal/parallel); cases
// land in registry order.
func Table4(workers int) ([]Table4Case, error) {
	workers = parallel.Workers(workers)
	return perWorkload(workers, bugs.UnresolvedIssues(), func(b *bugs.Built) (Table4Case, error) {
		w := b.W
		c := Table4Case{ID: w.ID, Ticket: w.Ticket, Description: w.Description, Notes: w.Notes}

		components := w.Components
		if components == nil {
			components = map[string][]string{w.SourceFile: nil}
		}
		names := make([]string, 0, len(components))
		for name := range components {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rep, err := analyzeComponent(b, components[name], workers)
			if err != nil {
				return Table4Case{}, err
			}
			// The paper's workflow ranks the investigated component's
			// own functions ("vProf ranks its function lookupKey
			// first"): restrict the listing to component members.
			member := func(fn string) bool { return true }
			if components[name] != nil {
				set := map[string]bool{}
				for _, fn := range components[name] {
					set[fn] = true
				}
				member = func(fn string) bool { return set[fn] }
			}
			// Cross-version diagnosis excludes functions that are new
			// in the buggy version (code refactoring, the paper's
			// _addReplyToBufferOrList case) from the ranking.
			isNew := func(fn string) bool {
				return b.NormalProg != b.Prog && b.NormalProg.FuncNamed(fn) == nil
			}
			f := Table4Finding{Component: name}
			localRank := 0
			for _, fr := range rep.Funcs {
				if !member(fr.Name) {
					continue
				}
				note := ""
				if isNew(fr.Name) {
					note = ", new in this version — excluded"
				} else {
					localRank++
					if fr.Name == w.RootFunc {
						f.RootRank = localRank
					}
				}
				if len(f.Top) >= 3 {
					continue
				}
				varName := "-"
				if fr.TopVariable != nil {
					varName = fr.TopVariable.Name
				}
				f.Top = append(f.Top, fmt.Sprintf("%s (rank %d, discount %.2f, var %s%s)",
					fr.Name, localRank, fr.Discount, varName, note))
			}
			if f.RootRank >= 1 && f.RootRank <= 2 {
				c.RootFound = true
			}
			c.Findings = append(c.Findings, f)
		}
		return c, nil
	})
}

// analyzeComponent runs vProf with monitoring restricted to a set of
// functions (nil = whole file).
func analyzeComponent(b *bugs.Built, funcs []string, workers int) (*analysis.Report, error) {
	filter := func(string) bool { return true }
	if funcs != nil {
		set := map[string]bool{}
		for _, f := range funcs {
			set[f] = true
		}
		filter = func(name string) bool { return set[name] }
	}
	// Regenerate schemas with the component filter for both versions.
	buggySch, buggyMeta, err := componentSchema(b.BuggySource, b.W.SourceFile, filter, b.Prog.Debug)
	if err != nil {
		return nil, err
	}
	normalMeta := buggyMeta
	if b.W.NormalSource != "" {
		_, normalMeta, err = componentSchema(b.NormalSource, b.W.SourceFile, filter, b.NormalProg.Debug)
		if err != nil {
			return nil, err
		}
	}

	normal, buggy := b.Profiles(normalMeta, buggyMeta, workers)
	in := analysis.Input{Debug: b.Prog.Debug, Schema: buggySch, Normal: normal, Buggy: buggy}
	p := analysis.DefaultParams()
	p.Workers = workers
	return analysis.Analyze(in, p)
}

// componentSchema regenerates the monitoring schema for one program version
// with locals restricted to the selected component's functions, and
// translates it against that version's debug info.
func componentSchema(src, file string, filter func(string) bool, debug *debuginfo.Info) (*schema.Schema, []debuginfo.VarLoc, error) {
	f, err := lang.Parse(file, src)
	if err != nil {
		return nil, nil, err
	}
	sch := schema.Generate(f, schema.Options{FuncFilter: filter})
	return sch, schema.Translate(sch, debug), nil
}

// RenderTable4 formats the unresolved-issue case studies.
func RenderTable4(cases []Table4Case) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Unresolved performance issues diagnosed using vProf.\n")
	for _, c := range cases {
		fmt.Fprintf(&b, "\n%s (%s): %s\n", c.ID, c.Ticket, c.Description)
		for _, f := range c.Findings {
			fmt.Fprintf(&b, "  component %s (root cause rank %s):\n", f.Component, RankString(f.RootRank))
			for _, t := range f.Top {
				fmt.Fprintf(&b, "    %s\n", t)
			}
		}
		status := "root cause surfaced in top-2 of a component"
		if !c.RootFound {
			status = "root cause NOT surfaced"
		}
		fmt.Fprintf(&b, "  => %s\n", status)
	}
	return b.String()
}

// Table5Row is one workload's profiling-overhead measurements (paper
// Table 5).
type Table5Row struct {
	ID        string
	Variables int
	// Pruned counts schema entries dropped by relevance-score pruning
	// (zero under the default options, which keep every entry).
	Pruned int
	// NoLoc counts schema entries with no debug-location info at all —
	// the ones Translate silently drops from monitoring.
	NoLoc int
	// Gaps counts PC-range holes across the covered variables
	// (caller-saved registers spilled around calls).
	Gaps      int
	InitMs    float64
	PCTableKB float64
	VarArrKB  float64
	SamplesKB float64
	RunTicks  int64
	WallMs    float64
}

// Table5 measures per-workload profiling overhead on the buggy execution,
// fanned out over a pool of workers (0 resolves via internal/parallel). All
// columns except the wall-clock timings (InitMs, WallMs) are deterministic
// for any worker count; the timings are nondeterministic under any
// schedule, parallel or not.
func Table5(workers int) ([]Table5Row, error) {
	return perWorkload(parallel.Workers(workers), bugs.All(), func(b *bugs.Built) (Table5Row, error) {
		prof, res := b.ProfileBuggy(0)
		cov := schema.Verify(b.Schema, b.Prog.Debug)
		return Table5Row{
			ID:        b.W.ID,
			Variables: len(b.Schema.Entries),
			Pruned:    b.Schema.Pruned,
			NoLoc:     cov.Dropped(),
			Gaps:      cov.GapCount(),
			InitMs:    float64(prof.InitDuration.Microseconds()) / 1000,
			PCTableKB: float64(prof.PCTableBytes) / 1024,
			VarArrKB:  float64(prof.VarArrayBytes) / 1024,
			SamplesKB: float64(prof.SampleBytes) / 1024,
			RunTicks:  res.TotalTicks(),
			WallMs:    float64(res.WallTime.Microseconds()) / 1000,
		}, nil
	})
}

// RenderTable5 formats the overhead table.
func RenderTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5. Memory overhead and execution time for profiling performance issues.\n\n")
	fmt.Fprintf(&b, "%-4s %9s %6s %5s %4s %10s %12s %12s %12s %12s %10s\n",
		"ID", "Variables", "Pruned", "NoLoc", "Gaps", "Init(ms)", "PCToVar(KB)", "VarArr(KB)", "Samples(KB)", "RunTicks", "Wall(ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %9d %6d %5d %4d %10.3f %12.1f %12.1f %12.1f %12d %10.2f\n",
			r.ID, r.Variables, r.Pruned, r.NoLoc, r.Gaps, r.InitMs, r.PCTableKB, r.VarArrKB, r.SamplesKB, r.RunTicks, r.WallMs)
	}
	return b.String()
}
