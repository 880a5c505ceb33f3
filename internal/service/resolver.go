package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"vprof/internal/bugs"
	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/lang"
	"vprof/internal/schema"
	"vprof/internal/vm"
)

// Resolver maps a workload name to what the service needs of its program:
// the debug info and monitoring schema a diagnosis needs — what the offline
// pipeline gets from compiling the program next to its profiles — the
// source text POST /v1/check analyzes, and the compiled program POST
// /v1/causal re-executes.
type Resolver interface {
	Resolve(workload string) (*debuginfo.Info, *schema.Schema, error)
	// Source returns the workload's source path and text.
	Source(workload string) (path, src string, err error)
	// Runnable returns the workload's compiled program and run config.
	Runnable(workload string) (*compiler.Program, vm.Config, error)
	// Known lists resolvable workload names (for diagnostics; a resolver
	// may accept names beyond this list).
	Known() []string
}

// bugsResolver serves the built-in bug registry: workload name = bug id
// (b1..b15, u1..u3). Builds are cached; building compiles and
// schema-analyzes the workload exactly as the offline harness does.
type bugsResolver struct {
	mu    sync.Mutex
	built map[string]*bugs.Built
}

// NewBugsResolver resolves the 18 reproduced issues of internal/bugs.
func NewBugsResolver() Resolver {
	return &bugsResolver{built: map[string]*bugs.Built{}}
}

func (r *bugsResolver) Resolve(workload string) (*debuginfo.Info, *schema.Schema, error) {
	_, b, err := r.build(workload)
	if err != nil {
		return nil, nil, err
	}
	return b.Prog.Debug, b.Schema, nil
}

// build returns the bug workload and its build, building it on first use.
func (r *bugsResolver) build(workload string) (*bugs.Workload, *bugs.Built, error) {
	w := bugs.ByID(workload)
	if w == nil {
		return nil, nil, fmt.Errorf("no bug workload %q", workload)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.built[workload]
	if !ok {
		var err error
		if b, err = w.Build(); err != nil {
			return nil, nil, err
		}
		r.built[workload] = b
	}
	return w, b, nil
}

// Source returns the workload's buggy source (the reproduced issue, noise
// injection excluded — the same text the offline checker goldens cover).
func (r *bugsResolver) Source(workload string) (string, string, error) {
	w := bugs.ByID(workload)
	if w == nil {
		return "", "", fmt.Errorf("no bug workload %q", workload)
	}
	path := w.SourceFile
	if path == "" {
		path = w.ID + ".vp"
	}
	return path, w.Source, nil
}

// Runnable returns the bug's compiled program and its buggy run config
// (run 0), the same pair the harness's causal validation uses.
func (r *bugsResolver) Runnable(workload string) (*compiler.Program, vm.Config, error) {
	w, b, err := r.build(workload)
	if err != nil {
		return nil, vm.Config{}, err
	}
	return b.Prog, w.BuggyConfig(0), nil
}

func (r *bugsResolver) Known() []string {
	var out []string
	for _, w := range bugs.All() {
		out = append(out, w.ID)
	}
	for _, w := range bugs.UnresolvedIssues() {
		out = append(out, w.ID)
	}
	return out
}

// programResolver serves workloads compiled from .vp source files: the
// workload name is the file's base name without extension.
type programResolver struct {
	mu       sync.Mutex
	paths    map[string]string // name → source path
	compiled map[string]*compiledProgram
}

type compiledProgram struct {
	prog  *compiler.Program
	debug *debuginfo.Info
	sch   *schema.Schema
}

// NewProgramResolver resolves each listed .vp file as a workload named
// after its base name (db/scan.vp → "scan").
func NewProgramResolver(files []string) (Resolver, error) {
	paths := map[string]string{}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))
		if name == "" {
			return nil, fmt.Errorf("cannot derive a workload name from %q", f)
		}
		if prev, ok := paths[name]; ok {
			return nil, fmt.Errorf("workload %q named by both %s and %s", name, prev, f)
		}
		paths[name] = f
	}
	return &programResolver{paths: paths, compiled: map[string]*compiledProgram{}}, nil
}

func (r *programResolver) Resolve(workload string) (*debuginfo.Info, *schema.Schema, error) {
	c, err := r.compile(workload)
	if err != nil {
		return nil, nil, err
	}
	return c.debug, c.sch, nil
}

// Runnable returns the compiled program under a zero VM config: plain .vp
// workloads run with defaults (no fault injection, no tick cap beyond the
// causal engine's own budget).
func (r *programResolver) Runnable(workload string) (*compiler.Program, vm.Config, error) {
	c, err := r.compile(workload)
	if err != nil {
		return nil, vm.Config{}, err
	}
	return c.prog, vm.Config{}, nil
}

func (r *programResolver) compile(workload string) (*compiledProgram, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.compiled[workload]; ok {
		return c, nil
	}
	path, ok := r.paths[workload]
	if !ok {
		return nil, fmt.Errorf("no program registered for workload %q", workload)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := lang.Parse(path, string(src))
	if err != nil {
		return nil, err
	}
	prog, err := compiler.Compile(f)
	if err != nil {
		return nil, err
	}
	c := &compiledProgram{prog: prog, debug: prog.Debug, sch: schema.GenerateIR(f, prog, schema.Options{})}
	r.compiled[workload] = c
	return c, nil
}

// Source re-reads the workload's registered file.
func (r *programResolver) Source(workload string) (string, string, error) {
	r.mu.Lock()
	path, ok := r.paths[workload]
	r.mu.Unlock()
	if !ok {
		return "", "", fmt.Errorf("no program registered for workload %q", workload)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return "", "", err
	}
	return path, string(src), nil
}

func (r *programResolver) Known() []string {
	var out []string
	for name := range r.paths {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// multiResolver tries resolvers in order (programs first, then the bug
// registry, say).
type multiResolver []Resolver

// NewMultiResolver chains resolvers; Resolve returns the first success.
func NewMultiResolver(rs ...Resolver) Resolver {
	return multiResolver(rs)
}

// first calls try on each chained resolver until one succeeds, and
// returns the first resolver's error when none does.
func (m multiResolver) first(workload string, try func(Resolver) error) error {
	var firstErr error
	for _, r := range m {
		err := try(r)
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no resolver for workload %q", workload)
	}
	return firstErr
}

func (m multiResolver) Resolve(workload string) (debug *debuginfo.Info, sch *schema.Schema, err error) {
	err = m.first(workload, func(r Resolver) (err error) {
		debug, sch, err = r.Resolve(workload)
		return err
	})
	return debug, sch, err
}

// Source delegates to the first chained resolver that knows the workload.
func (m multiResolver) Source(workload string) (path, src string, err error) {
	err = m.first(workload, func(r Resolver) (err error) {
		path, src, err = r.Source(workload)
		return err
	})
	return path, src, err
}

// Runnable delegates to the first chained resolver that knows the workload.
func (m multiResolver) Runnable(workload string) (prog *compiler.Program, cfg vm.Config, err error) {
	err = m.first(workload, func(r Resolver) (err error) {
		prog, cfg, err = r.Runnable(workload)
		return err
	})
	return prog, cfg, err
}

func (m multiResolver) Known() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range m {
		for _, name := range r.Known() {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}
