package vm_test

// Differential execution: every program in the repo (testdata DSL files
// plus all 18 bug workloads, buggy and patched variants) runs on the
// tree-walking and register engines under a matrix of profiling
// configurations, and every observable — results, globals, outputs, tick
// and blocked-tick accounting, instruction counts, runtime errors,
// branch/return events, and full alarm-time snapshots (PC, stack,
// slots, globals) — must match exactly. This is the correctness gate for
// the register engine's batched tick accounting.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/compiler"
	"vprof/internal/lang"
	"vprof/internal/vm"
)

// Caps keep traces small on alarm-heavy configs; totals still compare.
const (
	maxAlarmSnaps = 64
	maxEvents     = 512
)

type frameSnap struct {
	FuncIndex int
	RetPC     int
	Slots     []vm.Value
	OOB       [2]vm.Value // Slot(-1) and Slot(NumSlots): must be zero
}

type alarmSnap struct {
	Kind    string // "cpu" or "wall"
	Blocked bool
	Ticks   int64
	Wall    int64
	Instr   int64
	PC      int
	Frames  []frameSnap
	Globals []vm.Value
}

type branchEv struct {
	PC    int
	Taken bool
}

type returnEv struct {
	Func int
	Val  vm.Value
}

// procTrace is everything observable about one simulated process.
type procTrace struct {
	Err         string
	Result      vm.Value
	PC          int
	Ticks       int64
	Blocked     int64
	Instr       int64
	Globals     []vm.Value
	Outputs     []int64
	BranchTaken []int64
	CallEdges   map[[2]int32]int64
	Children    int

	Alarms      []alarmSnap
	AlarmsTotal int

	Branches    []branchEv
	BranchTotal int
	Returns     []returnEv
	ReturnTotal int
}

func errKey(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, vm.ErrTicksExceeded):
		return "ticks-exceeded"
	case errors.Is(err, vm.ErrInterrupted):
		return "interrupted"
	}
	var re *vm.RuntimeError
	if errors.As(err, &re) {
		return fmt.Sprintf("runtime pc=%d line=%d msg=%s", re.PC, re.Line, re.Msg)
	}
	return err.Error()
}

func snapshot(v *vm.VM, kind string, blocked bool) alarmSnap {
	s := alarmSnap{
		Kind:    kind,
		Blocked: blocked,
		Ticks:   v.Ticks(),
		Wall:    v.WallTicks(),
		Instr:   v.InstrCount,
		PC:      v.PC(),
		Globals: v.Globals(),
	}
	prog := v.Prog()
	for d := 0; ; d++ {
		fr, ok := v.Frame(d)
		if !ok {
			break
		}
		ns := prog.Funcs[fr.FuncIndex].NumSlots
		fs := frameSnap{
			FuncIndex: fr.FuncIndex,
			RetPC:     fr.RetPC,
			OOB:       [2]vm.Value{fr.Slot(-1), fr.Slot(ns)},
		}
		for i := 0; i < ns; i++ {
			fs.Slots = append(fs.Slots, fr.Slot(i))
		}
		s.Frames = append(s.Frames, fs)
	}
	return s
}

// diffCase is one profiling configuration both engines run under.
type diffCase struct {
	name string
	mk   func(p *compiler.Program) vm.Config
	// observe attaches OnBranch/OnReturn recorders and CountCalls.
	observe bool
	// interruptAfter, when > 0, calls Interrupt(nil) on the Nth CPU alarm.
	interruptAfter int
}

func diffCases() []diffCase {
	return []diffCase{
		{name: "plain", mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 50_000}
		}},
		{name: "cpu-alarm", mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 50_000, AlarmInterval: 97, AlarmPhase: 13}
		}},
		{name: "wall-alarm", mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 50_000, WallAlarmInterval: 89, AlarmPhase: 7}
		}},
		{name: "both-alarms", mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 50_000, AlarmInterval: 101, AlarmPhase: 3, WallAlarmInterval: 131}
		}},
		{name: "cost-scale", mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 50_000, AlarmInterval: 157, CostScale: func(pc int, cost int64) int64 {
				if pc%5 == 0 {
					return cost * 2
				}
				return cost
			}}
		}},
		{name: "scale-span", mk: func(p *compiler.Program) vm.Config {
			fn := p.Funcs[len(p.Funcs)/2]
			return vm.Config{MaxTicks: 50_000, AlarmInterval: 113, ScaleSpan: &vm.SpanScale{
				Start: fn.Entry, End: fn.End, Factor: 0.3,
			}}
		}},
		{name: "scale-stack", mk: func(p *compiler.Program) vm.Config {
			marked := make([]bool, len(p.Funcs))
			for i := range marked {
				marked[i] = i%3 == 0
			}
			return vm.Config{MaxTicks: 50_000, WallAlarmInterval: 127, ScaleStack: &vm.StackScale{
				Marked: marked, Factor: 0.25,
			}}
		}},
		{name: "interrupt", interruptAfter: 5, mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 50_000, AlarmInterval: 101, AlarmPhase: 17}
		}},
		{name: "tight-ticks", mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 777}
		}},
		{name: "tight-wall", mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 50_000, MaxWallTicks: 555, WallAlarmInterval: 67}
		}},
		{name: "observe", observe: true, mk: func(*compiler.Program) vm.Config {
			return vm.Config{MaxTicks: 20_000, CountCalls: true}
		}},
	}
}

// runTraced executes the program's whole process tree on one engine and
// captures a full observable trace per process.
func runTraced(p *compiler.Program, c diffCase, inputs []int64, seed uint64, engine vm.Engine) []procTrace {
	var traces []*procTrace
	procs := engine.RunProcesses(p, func(pid int) vm.Config {
		cfg := c.mk(p)
		cfg.Inputs = inputs
		cfg.Seed = seed + uint64(pid)
		tr := &procTrace{}
		traces = append(traces, tr)
		alarms := 0
		if cfg.AlarmInterval > 0 {
			cfg.OnAlarm = func(v *vm.VM) {
				tr.AlarmsTotal++
				if len(tr.Alarms) < maxAlarmSnaps {
					tr.Alarms = append(tr.Alarms, snapshot(v, "cpu", false))
				}
				alarms++
				if c.interruptAfter > 0 && alarms == c.interruptAfter {
					v.Interrupt(nil)
				}
			}
		}
		if cfg.WallAlarmInterval > 0 {
			cfg.OnWallAlarm = func(v *vm.VM, blocked bool) {
				tr.AlarmsTotal++
				if len(tr.Alarms) < maxAlarmSnaps {
					tr.Alarms = append(tr.Alarms, snapshot(v, "wall", blocked))
				}
			}
		}
		if c.observe {
			cfg.OnBranch = func(pc int, taken bool) {
				tr.BranchTotal++
				if len(tr.Branches) < maxEvents {
					tr.Branches = append(tr.Branches, branchEv{PC: pc, Taken: taken})
				}
			}
			cfg.OnReturn = func(fi int, val vm.Value) {
				tr.ReturnTotal++
				if len(tr.Returns) < maxEvents {
					tr.Returns = append(tr.Returns, returnEv{Func: fi, Val: val})
				}
			}
		}
		return cfg
	})
	out := make([]procTrace, len(procs))
	for i, pr := range procs {
		tr := traces[i]
		tr.Err = errKey(pr.Err)
		tr.Result = pr.VM.Result()
		tr.PC = pr.VM.PC()
		tr.Ticks = pr.VM.Ticks()
		tr.Blocked = pr.VM.BlockedTicks()
		tr.Instr = pr.VM.InstrCount
		tr.Globals = pr.VM.Globals()
		tr.Outputs = pr.VM.Outputs
		tr.BranchTaken = pr.VM.BranchTaken
		tr.CallEdges = pr.VM.CallEdges
		tr.Children = len(pr.VM.Children)
		out[i] = *tr
	}
	// Recycling here hands each engine run the other's dirty arena, so the
	// whole differential matrix (and the fuzzer built on it) doubles as a
	// stale-arena equivalence check.
	vm.RecycleProcesses(procs)
	return out
}

// diffProgram asserts tree and register traces match for every case.
func diffProgram(t *testing.T, name string, p *compiler.Program, inputs []int64, seed uint64) {
	t.Helper()
	for _, c := range diffCases() {
		tree := runTraced(p, c, inputs, seed, vm.TreeEngine)
		reg := runTraced(p, c, inputs, seed, vm.RegisterEngine)
		if !reflect.DeepEqual(tree, reg) {
			t.Errorf("%s/%s: engine divergence", name, c.name)
			reportDiff(t, tree, reg)
		}
	}
}

func reportDiff(t *testing.T, tree, reg []procTrace) {
	t.Helper()
	if len(tree) != len(reg) {
		t.Errorf("  process count: tree=%d register=%d", len(tree), len(reg))
		return
	}
	for i := range tree {
		a, b := tree[i], reg[i]
		if reflect.DeepEqual(a, b) {
			continue
		}
		t.Errorf("  pid %d:", i+1)
		cmp := func(field string, x, y interface{}) {
			if !reflect.DeepEqual(x, y) {
				t.Errorf("    %s: tree=%v register=%v", field, x, y)
			}
		}
		cmp("err", a.Err, b.Err)
		cmp("result", a.Result, b.Result)
		cmp("pc", a.PC, b.PC)
		cmp("ticks", a.Ticks, b.Ticks)
		cmp("blocked", a.Blocked, b.Blocked)
		cmp("instr", a.Instr, b.Instr)
		cmp("globals", a.Globals, b.Globals)
		cmp("outputs", a.Outputs, b.Outputs)
		cmp("branchTaken", a.BranchTaken, b.BranchTaken)
		cmp("callEdges", a.CallEdges, b.CallEdges)
		cmp("children", a.Children, b.Children)
		cmp("alarmsTotal", a.AlarmsTotal, b.AlarmsTotal)
		cmp("branchTotal", a.BranchTotal, b.BranchTotal)
		cmp("returnTotal", a.ReturnTotal, b.ReturnTotal)
		cmp("branches", a.Branches, b.Branches)
		cmp("returns", a.Returns, b.Returns)
		for j := range a.Alarms {
			if j >= len(b.Alarms) {
				break
			}
			if !reflect.DeepEqual(a.Alarms[j], b.Alarms[j]) {
				t.Errorf("    alarm %d: tree=%+v register=%+v", j, a.Alarms[j], b.Alarms[j])
				break
			}
		}
	}
}

func compileSrc(t *testing.T, name, src string) *compiler.Program {
	t.Helper()
	f, err := lang.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	p, err := compiler.Compile(f)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return p
}

// diffSources returns every named program source in the repo: the
// testdata DSL files plus both variants of all 18 bug workloads.
func diffSources(t testing.TB) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.vp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(path)] = string(data)
	}
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		srcs[w.ID+"-buggy"] = w.Source
		if w.NormalSource != "" {
			srcs[w.ID+"-normal"] = w.NormalSource
		}
	}
	return srcs
}

func TestDiffExecEngines(t *testing.T) {
	for name, src := range diffSources(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			p := compileSrc(t, name, src)
			diffProgram(t, name, p, []int64{4, 7, 9, 2}, 12345)
		})
	}
}

// TestDiffExecBugConfigs replays each workload under its own harness
// configurations (the exact inputs/seeds Tables 3-5 use), bounded to a
// smaller budget so the whole matrix stays fast.
func TestDiffExecBugConfigs(t *testing.T) {
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			p := compileSrc(t, w.ID, w.Source)
			for _, cfg := range []vm.Config{w.BuggyConfig(0), w.NormalConfig(1)} {
				for _, c := range diffCases() {
					base := c
					mk := base.mk
					base.mk = func(pp *compiler.Program) vm.Config {
						out := mk(pp)
						if out.MaxTicks > cfg.MaxTicks {
							out.MaxTicks = cfg.MaxTicks
						}
						return out
					}
					tree := runTraced(p, base, cfg.Inputs, cfg.Seed, vm.TreeEngine)
					reg := runTraced(p, base, cfg.Inputs, cfg.Seed, vm.RegisterEngine)
					if !reflect.DeepEqual(tree, reg) {
						t.Errorf("%s/%s: engine divergence", w.ID, c.name)
						reportDiff(t, tree, reg)
					}
				}
			}
		})
	}
}
