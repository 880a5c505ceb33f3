package baselines

import (
	"fmt"
	"sort"
	"strings"

	"vprof/internal/sampler"
	"vprof/internal/vm"
)

// CallGraphRow is one function in a gprof-style call-graph profile.
type CallGraphRow struct {
	Name string
	// Self is the function's own sampled cost (flat profile).
	Self float64
	// Children is the cost inherited from callees, attributed by call
	// counts (gprof's propagation).
	Children float64
	// Total = Self + Children.
	Total float64
	// Calls is the number of times the function was called.
	Calls int64
}

// CallGraphProfile is gprof's call-graph output: the flat histogram plus
// mcount call counts, with callee time propagated to callers.
type CallGraphProfile struct {
	Rows []CallGraphRow // sorted by Total, descending
}

// Rank returns the 1-based rank of fn by total (inclusive) cost, or 0.
func (p *CallGraphProfile) Rank(fn string) int {
	for i, r := range p.Rows {
		if r.Name == fn {
			return i + 1
		}
	}
	return 0
}

// Render formats the profile like gprof's call-graph listing header.
func (p *CallGraphProfile) Render(topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %12s %12s %12s %10s  %s\n", "rank", "total", "self", "children", "calls", "function")
	n := len(p.Rows)
	if topN > 0 && topN < n {
		n = topN
	}
	for i, r := range p.Rows[:n] {
		fmt.Fprintf(&b, "%-4d %12.0f %12.0f %12.0f %10d  %s\n", i+1, r.Total, r.Self, r.Children, r.Calls, r.Name)
	}
	return b.String()
}

// GprofCallGraph produces gprof's call-graph profile of the buggy execution:
// PC samples give self time, mcount-style call counts distribute each
// callee's total time over its callers proportionally. Like gprof, only the
// parent process is observed, library PCs are invisible, and cycles are
// collapsed (a back edge contributes no inherited time — gprof lumps cycle
// members instead; this simplification keeps attribution finite).
func GprofCallGraph(t *Target) *CallGraphProfile {
	prog := t.Prog
	cfg := cfgWithPhase(t.BuggyCfg, 0)
	cfg.CountCalls = true

	hist := make([]int64, len(prog.Instrs))
	edges := map[[2]int32]int64{}
	procs := vm.RunProcesses(prog, func(pid int) vm.Config {
		c := cfg
		record := pid == 1 // parent only, as stock gprof
		c.AlarmInterval = sampler.DefaultInterval
		c.OnAlarm = func(m *vm.VM) {
			if record {
				pc := m.PC()
				if pc >= 0 && pc < len(hist) {
					hist[pc]++
				}
			}
		}
		return c
	})
	for _, proc := range procs {
		if proc.Pid != 1 {
			continue
		}
		for e, n := range proc.VM.CallEdges {
			edges[e] += n
		}
	}

	// Self cost per function index (application functions only).
	self := make([]float64, len(prog.Funcs))
	for pc, n := range hist {
		if n == 0 {
			continue
		}
		fn := prog.FuncAt(pc)
		if fn == nil || fn.Library || fn.Synthetic {
			continue
		}
		self[fn.Index] += float64(n * sampler.DefaultInterval)
	}

	// callsTo[i] totals incoming calls to function i.
	callsTo := make([]int64, len(prog.Funcs))
	for e, n := range edges {
		callsTo[int(e[1])] += n
	}

	// Total time: self plus inherited callee time, computed by memoized
	// DFS over the call graph; members of a cycle contribute nothing
	// across the back edge.
	total := make([]float64, len(prog.Funcs))
	state := make([]int, len(prog.Funcs)) // 0 unvisited, 1 visiting, 2 done
	children := make(map[int][][2]int64)
	for e, n := range edges {
		children[int(e[0])] = append(children[int(e[0])], [2]int64{int64(e[1]), n})
	}
	var dfs func(i int) float64
	dfs = func(i int) float64 {
		switch state[i] {
		case 1:
			return 0 // cycle back edge
		case 2:
			return total[i]
		}
		state[i] = 1
		sum := self[i]
		for _, c := range children[i] {
			callee := int(c[0])
			calleeTotal := dfs(callee)
			if callsTo[callee] > 0 {
				sum += calleeTotal * float64(c[1]) / float64(callsTo[callee])
			}
		}
		state[i] = 2
		total[i] = sum
		return sum
	}

	out := &CallGraphProfile{}
	for _, f := range prog.Funcs {
		if f.Library || f.Synthetic {
			continue
		}
		tot := dfs(f.Index)
		if tot == 0 && callsTo[f.Index] == 0 {
			continue
		}
		out.Rows = append(out.Rows, CallGraphRow{
			Name:     f.Name,
			Self:     self[f.Index],
			Children: tot - self[f.Index],
			Total:    tot,
			Calls:    callsTo[f.Index],
		})
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		if out.Rows[i].Total != out.Rows[j].Total {
			return out.Rows[i].Total > out.Rows[j].Total
		}
		return out.Rows[i].Name < out.Rows[j].Name
	})
	return out
}
