package sampler_test

import (
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/compiler"
	"vprof/internal/lang"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/vm"
)

// Lock-contention scenario for off-CPU profiling (the paper's §7 future-work
// direction): a checkpointer holds a mutex while flushing; when a wrong
// constraint makes it flush everything, workers block on the mutex for the
// whole flush. The blocked time is invisible to a CPU profiler but dominates
// the off-CPU profile, and the mutex-hold-time variable carries the anomaly.
const lockSrc = `
var checkpoint_all;
var dirty_pages;
var mutex_hold_ticks;

func buf_flush_batch(n) {
	work(n * 3);
	return n * 3;
}

func log_checkpointer(rounds) {
	for (var r = 0; r < rounds; r++) {
		var to_flush = 64;
		if (checkpoint_all > 0) {
			to_flush = dirty_pages;
		}
		mutex_hold_ticks = buf_flush_batch(to_flush);
		work(40);
	}
	return 0;
}

func log_write_up_to(w) {
	block(mutex_hold_ticks);
	work(25);
	return w;
}

func db_worker(n) {
	for (var i = 0; i < n; i++) {
		log_write_up_to(i);
		work(60);
	}
	return 0;
}

func main() {
	checkpoint_all = input(0);
	dirty_pages = input(1);
	log_checkpointer(input(2));
	db_worker(input(3));
}
`

func TestOffCPUProfileSeparatesBlockedTime(t *testing.T) {
	f, err := lang.Parse("log0log.vp", lockSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.GenerateIR(f, prog, schema.Options{})
	meta := schema.Translate(sch, prog.Debug)

	buggyCfg := vm.Config{Inputs: []int64{1, 900, 6, 40}}

	// CPU profile: block() time must be invisible.
	cpu := sampler.ProfileRun(prog, meta, buggyCfg, sampler.Options{Interval: 53})
	cpuCost := sampler.MergeProfiles(cpu.Profiles).FuncPCCost(prog.Debug)
	if cpuCost["log_write_up_to"] > cpuCost["buf_flush_batch"] {
		t.Errorf("CPU profile: waiter %v should be below flusher %v",
			cpuCost["log_write_up_to"], cpuCost["buf_flush_batch"])
	}

	// Off-CPU profile: only blocked instants are recorded, all inside the
	// waiter.
	off := sampler.ProfileRun(prog, meta, buggyCfg, sampler.Options{Interval: 53, OffCPU: true})
	offProf := sampler.MergeProfiles(off.Profiles)
	offCost := offProf.FuncPCCost(prog.Debug)
	if len(offCost) == 0 {
		t.Fatal("off-CPU profile empty")
	}
	for fn := range offCost {
		if fn != "log_write_up_to" {
			t.Errorf("off-CPU samples in %s; blocking happens only in log_write_up_to", fn)
		}
	}
	// Blocked time dominates this workload: the off-CPU cost must exceed
	// the waiter's CPU cost.
	if offCost["log_write_up_to"] <= cpuCost["log_write_up_to"] {
		t.Errorf("off-CPU cost %v <= CPU cost %v", offCost["log_write_up_to"], cpuCost["log_write_up_to"])
	}
	// The mutex-hold variable is sampled during blocked instants.
	if len(offProf.VarSamples("#global", "mutex_hold_ticks")) == 0 {
		t.Error("mutex_hold_ticks not sampled while blocked")
	}
}

func TestOffCPUValueAssistedDiagnosis(t *testing.T) {
	f, err := lang.Parse("log0log.vp", lockSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.GenerateIR(f, prog, schema.Options{})
	meta := schema.Translate(sch, prog.Debug)

	profile := func(inputs []int64, run int) *sampler.Profile {
		cfg := vm.Config{Inputs: inputs, AlarmPhase: int64(7*run + 3), Seed: uint64(run + 1)}
		res := sampler.ProfileRun(prog, meta, cfg, sampler.Options{Interval: 53, OffCPU: true})
		return sampler.MergeProfiles(res.Profiles)
	}
	in := analysis.Input{Debug: prog.Debug, Schema: sch}
	for run := 0; run < 3; run++ {
		in.Normal = append(in.Normal, profile([]int64{0, 900, 6, 40}, run))
		in.Buggy = append(in.Buggy, profile([]int64{1, 900, 6, 40}, run))
	}
	rep, err := analysis.Analyze(in, analysis.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// The blocking site and its callers share the inherited blocked cost
	// (virtual unwinding): the waiter must rank in the top two.
	if r := rep.Rank("log_write_up_to"); r < 1 || r > 2 {
		t.Fatalf("waiter ranked %d\n%s", r, rep.Render(5))
	}
	// The mutex-hold-time variable — whose writer is the buggy
	// checkpointer — carries a zero discount (192 ticks normal vs 2700
	// buggy at every blocked sample).
	vr := rep.Variables["#global\x00mutex_hold_ticks"]
	if vr == nil || !vr.Tested {
		t.Fatalf("mutex_hold_ticks not analyzed: %+v", vr)
	}
	if vr.Discount != 0 {
		t.Errorf("mutex_hold_ticks discount = %v, want 0", vr.Discount)
	}
	// The checkpointer's wrong constraint is visible too: checkpoint_all
	// is an anomalous conditional variable.
	ca := rep.Variables["#global\x00checkpoint_all"]
	if ca == nil || !ca.Tested || ca.Discount >= 0.8 {
		t.Errorf("checkpoint_all not flagged: %+v", ca)
	}
}

func TestWallClockSemantics(t *testing.T) {
	src := `func main() { work(100); block(400); work(100); }`
	f, err := lang.Parse("t.vp", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, vm.Config{})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.BlockedTicks() != 400 {
		t.Errorf("blocked = %d, want 400", m.BlockedTicks())
	}
	if m.WallTicks() != m.Ticks()+400 {
		t.Errorf("wall %d != cpu %d + 400", m.WallTicks(), m.Ticks())
	}
	// CPU alarms do not fire while blocked; wall alarms do.
	var cpuAlarms, wallBlocked, wallRunning int
	m2 := vm.New(prog, vm.Config{
		AlarmInterval:     50,
		OnAlarm:           func(*vm.VM) { cpuAlarms++ },
		WallAlarmInterval: 50,
		OnWallAlarm: func(_ *vm.VM, blocked bool) {
			if blocked {
				wallBlocked++
			} else {
				wallRunning++
			}
		},
	})
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if cpuAlarms < 3 || cpuAlarms > 6 {
		t.Errorf("cpu alarms = %d for ~200 cpu ticks at 50", cpuAlarms)
	}
	if wallBlocked < 7 || wallBlocked > 9 {
		t.Errorf("blocked wall alarms = %d for 400 blocked ticks at 50", wallBlocked)
	}
	if wallRunning < 3 || wallRunning > 6 {
		t.Errorf("running wall alarms = %d", wallRunning)
	}
}

func TestMaxWallTicks(t *testing.T) {
	src := `func main() { while (true) { block(1000); } }`
	f, err := lang.Parse("t.vp", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog, vm.Config{MaxWallTicks: 50000})
	if err := m.Run(); err != vm.ErrTicksExceeded {
		t.Fatalf("err = %v, want ErrTicksExceeded", err)
	}
	if m.WallTicks() < 50000 {
		t.Errorf("wall = %d", m.WallTicks())
	}
	// CPU ticks stay small: the program is blocked nearly all the time.
	if m.Ticks() > m.WallTicks()/10 {
		t.Errorf("cpu %d should be a sliver of wall %d", m.Ticks(), m.WallTicks())
	}
}
