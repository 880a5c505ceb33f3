package vm

import "vprof/internal/compiler"

// Process is the result of running one simulated process.
type Process struct {
	Pid int
	// ParentPid is 0 for the root process.
	ParentPid int
	// Entry is the function index the process started in (main/__init for
	// the root).
	Entry int
	VM    *VM
	// Err is nil, ErrTicksExceeded, or a *RuntimeError.
	Err error
}

// RunProcesses executes prog as a process tree: the root process runs from
// the program entry, and every spawn() request becomes a child process run
// after its parent completes (children may spawn further children). mkConfig
// is called once per process with its pid (root pid is 1), letting the
// caller attach a per-process profiler; processes are returned in pid order.
//
// Real systems run children concurrently; running them sequentially
// preserves everything a CPU-time profiler observes (per-process PC/value
// samples) while keeping the simulation deterministic.
func RunProcesses(prog *compiler.Program, mkConfig func(pid int) Config) []Process {
	return runProcesses(prog, mkConfig, (*VM).Run, (*VM).RunFunc)
}

// runProcesses is RunProcesses with the root and child entry points as
// parameters, so the tests can run process trees on the tree-walking
// reference interpreter too.
func runProcesses(prog *compiler.Program, mkConfig func(pid int) Config,
	run func(*VM) error, runFunc func(*VM, int, []Value, []Value) error) []Process {
	type pending struct {
		parent int
		req    ChildRequest
	}
	var procs []Process
	var queue []pending

	pid := 1
	rootVM := New(prog, mkConfig(pid))
	rootErr := run(rootVM)
	procs = append(procs, Process{Pid: pid, Entry: prog.MainIndex, VM: rootVM, Err: rootErr})
	for _, req := range rootVM.Children {
		queue = append(queue, pending{parent: pid, req: req})
	}

	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		pid++
		child := New(prog, mkConfig(pid))
		err := runFunc(child, p.req.FuncIndex, p.req.Args, p.req.Globals)
		procs = append(procs, Process{
			Pid:       pid,
			ParentPid: p.parent,
			Entry:     p.req.FuncIndex,
			VM:        child,
			Err:       err,
		})
		for _, req := range child.Children {
			queue = append(queue, pending{parent: pid, req: req})
		}
	}
	return procs
}

// RecycleProcesses returns every process VM's arenas to the pool (see
// VM.Recycle). Call it once the caller has extracted what it needs from
// the process tree and will no longer inspect any VM's stack.
func RecycleProcesses(procs []Process) {
	for _, p := range procs {
		p.VM.Recycle()
	}
}
