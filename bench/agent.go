package main

import (
	"fmt"

	"vprof/internal/bugs"
	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/store"
	"vprof/internal/vm"
)

// agent is the profiling side of a workload: the compiled programs of its
// issues, profiled the way `vprof push` profiles (ProfileRun, merge the
// process tree, recycle the VMs).
type agent struct {
	built map[string]*bugs.Built
}

func newAgent(issues []string) (*agent, error) {
	a := &agent{built: map[string]*bugs.Built{}}
	for _, id := range issues {
		w := bugs.ByID(id)
		if w == nil {
			return nil, fmt.Errorf("no bug workload %q", id)
		}
		b, err := w.Build()
		if err != nil {
			return nil, err
		}
		a.built[id] = b
	}
	return a, nil
}

func (a *agent) profile(issue string, label store.Label, run int) (*sampler.Profile, error) {
	return profile(a.built[issue], label, run)
}

// target is what one profiled execution runs: the program version, its
// monitoring metadata and the VM configuration of the run.
func target(b *bugs.Built, label store.Label, run int) (*compiler.Program, []debuginfo.VarLoc, vm.Config) {
	if label == store.LabelCandidate {
		return b.Prog, b.Meta, b.W.BuggyConfig(run)
	}
	return b.NormalProg, b.NormalMeta, b.W.NormalConfig(run)
}

// profile runs one profiled execution. A profile without value samples is
// an error: the diagnosis would silently lose its variable discounts.
func profile(b *bugs.Built, label store.Label, run int) (*sampler.Profile, error) {
	prog, meta, cfg := target(b, label, run)
	res := sampler.ProfileRun(prog, meta, cfg, sampler.Options{Interval: bugs.DefaultInterval})
	p := sampler.MergeProfiles(res.Profiles)
	res.Recycle()
	if len(p.Samples) == 0 {
		return nil, fmt.Errorf("%s %s run %d: profile has no value samples", b.W.ID, label, run)
	}
	return p, nil
}

// bundle profiles one run and encodes it for upload.
func (a *agent) bundle(issue string, label store.Label, run int) ([]byte, error) {
	p, err := a.profile(issue, label, run)
	if err != nil {
		return nil, err
	}
	return profilefmt.Marshal(p)
}
