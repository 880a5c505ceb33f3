package vm

import "vprof/internal/compiler"

// Engine is one way of executing programs, so tests in package vm_test can
// run everything on both the production register engine and the
// tree-walking reference interpreter (tree_test.go) and compare.
type Engine struct {
	Name         string
	Run          func(*VM) error
	RunProcesses func(*compiler.Program, func(pid int) Config) []Process
}

var (
	TreeEngine = Engine{"tree", (*VM).runTree,
		func(p *compiler.Program, mk func(pid int) Config) []Process {
			return runProcesses(p, mk, (*VM).runTree, (*VM).runFuncTree)
		}}
	RegisterEngine = Engine{"register", (*VM).Run, RunProcesses}
	// Engines lists the reference first.
	Engines = []Engine{TreeEngine, RegisterEngine}
)
