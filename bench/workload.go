package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"

	"vprof/internal/bugs"
	"vprof/internal/store"
)

// Op kinds. A push is one agent cycle (profile, encode, upload); a diagnose
// asks the service for a diagnosis (in the diagnose workload it first pushes
// the fresh candidate it names); a oneshot is the offline `vprof diagnose`
// pipeline for one issue.
const (
	kindPush     = "push"
	kindDiagnose = "diagnose"
	kindOneshot  = "oneshot"
)

// runSpace bounds the profiling run indices. The VM's alarm phase grows
// with the run index (7·run + k), and far out — at run 5000 — the normal
// profiles of b3 and u3 carry no value samples.
const runSpace = 256

// oneshotRuns is the per-side run count of one offline diagnosis (Table 2).
const oneshotRuns = 5

// workload is one traffic mix. A run executes whole rounds: a round holds
// each of the workload's ops once in a seeded order, so every run measures
// the same mix of issues whatever its seed.
type workload struct {
	name string
	// roundSeconds is about how long one round took on the recording
	// machine (bench/BASELINE.json). A run asked to measure S seconds runs
	// round(S / roundSeconds) rounds, so that both sides of a comparison do
	// the same work.
	roundSeconds float64
	// issues are the bug workloads (b1..b15, u1..u3) the ops draw from.
	issues []string
	// clients is the number of closed-loop callers; each waits for its
	// reply before sending its next op.
	clients int
	// cluster serves through a Router over three in-process nodes instead
	// of a single local store; offline runs no service at all.
	cluster, offline bool
	// baselines and candidates are the runs per issue pushed at set-up.
	baselines, candidates int
	// round lists one round's ops before shuffling; pushes leave Run and
	// RunID to the generator.
	round func(issues []string) []op
}

// issuesExcept lists the 18 reproduced issues, b1..b15 then u1..u3, minus
// the given ones.
func issuesExcept(skip ...string) []string {
	var ids []string
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		if !slices.Contains(skip, w.ID) {
			ids = append(ids, w.ID)
		}
	}
	return ids
}

// workloads are the benchmark's traffic mixes, by name. Each stresses a
// different layer, and each optimization target has a workload that
// bypasses it (see README.md).
var workloads = map[string]*workload{
	// Write path: VM, sampler, codec, fsync and the sketch fold at ingest.
	// No analysis runs, so an analysis change must leave it flat.
	"ingest": {
		name: "ingest", roundSeconds: 0.63, issues: issuesExcept(), clients: 2,
		round: func(issues []string) []op {
			var ops []op
			for _, id := range issues {
				ops = append(ops,
					op{Kind: kindPush, Issue: id, Label: store.LabelNormal},
					op{Kind: kindPush, Issue: id, Label: store.LabelCandidate})
			}
			return ops
		},
	},
	// Read path: 17 × 16 baselines exceed the 64-profile decode cache 4.25×,
	// so full-path analysis, decoding and rendering dominate. b10 is left
	// out of the analysis workloads: one b10 diagnosis costs about as much
	// as the other 17 together, so a run's latencies would hinge on it. One
	// client: the analysis already fans out over both CPUs, and with two
	// clients an op's latency hinged on which op the other client ran.
	"diagnose": {
		name: "diagnose", roundSeconds: 4.1, issues: issuesExcept("b10"), clients: 1, baselines: 16,
		round: func(issues []string) []op {
			var ops []op
			for _, id := range issues {
				ops = append(ops, op{Kind: kindDiagnose, Issue: id, Label: store.LabelCandidate})
			}
			return ops
		},
	},
	// Quorum fan-out, shard-local corpus folds and the sketch path, with
	// normal pushes rolling the baseline window under the diagnoses. The
	// issues are cheap to diagnose and span all four modeled applications.
	"cluster-mix": {
		name: "cluster-mix", roundSeconds: 0.6, issues: []string{"b4", "b6", "b7", "b13", "b14", "u2"},
		clients: 2, cluster: true, baselines: 16, candidates: 1,
		round: func(issues []string) []op {
			var ops []op
			for _, id := range issues {
				ops = append(ops,
					op{Kind: kindPush, Issue: id, Label: store.LabelNormal},
					op{Kind: kindPush, Issue: id, Label: store.LabelNormal},
					op{Kind: kindPush, Issue: id, Label: store.LabelNormal},
					op{Kind: kindPush, Issue: id, Label: store.LabelCandidate},
					op{Kind: kindDiagnose, Issue: id})
			}
			return ops
		},
	},
	// The paper's own workflow with no HTTP, store or cluster: VM, sampler,
	// full analysis and localization carry all the work.
	"offline": {
		name: "offline", roundSeconds: 4.1, issues: issuesExcept("b10"), clients: 1, offline: true,
		round: func(issues []string) []op {
			var ops []op
			for _, id := range issues {
				ops = append(ops, op{Kind: kindOneshot, Issue: id})
			}
			return ops
		},
	},
}

// workloadNames is the order `-workload all` runs them in.
var workloadNames = []string{"ingest", "diagnose", "cluster-mix", "offline"}

// op is one closed-loop request.
type op struct {
	Seq   int         `json:"seq"`
	Round int         `json:"round"` // -1 for set-up pushes
	Kind  string      `json:"kind"`
	Issue string      `json:"issue"`
	Label store.Label `json:"label,omitempty"`
	// RunID is the store run key of the profile the op pushes; it counts
	// the (issue, label) stream, so later pushes carry higher ids.
	RunID string `json:"run_id,omitempty"`
	// Runs are the profiling run indices: one for a push, oneshotRuns for a
	// oneshot (used for both its normal and its buggy runs).
	Runs []int `json:"runs,omitempty"`
	// Check marks a diagnosis whose render is recomputed offline after the
	// run and compared byte for byte.
	Check bool `json:"check,omitempty"`
}

// opGen produces a workload's ops from a seed: the same seed gives the same
// set-up pushes and the same rounds. The seed orders each round; what is
// profiled does not depend on it: the k-th push of an (issue, label) stream
// profiles run k, and round r of the offline workload profiles runs 5r to
// 5r+4. The analysis cost of a profile grows with the square of its pooled
// sample counts, so seeded run indices swung single ops by half their cost
// and the latency percentiles by 10-18% from seed to seed.
type opGen struct {
	wl      *workload
	seed    int64
	drawn   map[string]int // (issue, label) stream → pushes so far
	seq     int
	diagSeq int
	// checkOffset picks which tenth of the diagnoses is checked.
	checkOffset int
}

func newOpGen(wl *workload, seed int64) *opGen {
	return &opGen{
		wl: wl, seed: seed, drawn: map[string]int{},
		checkOffset: int(hashSeed(seed, wl.name, "check") % 10),
	}
}

// hashSeed derives an independent PRNG seed for one named stream.
func hashSeed(seed int64, parts ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, p := range parts {
		fmt.Fprintf(h, "\x00%s", p)
	}
	return h.Sum64()
}

// draw returns the next position of an (issue, label) stream, which is
// both the run id and the run index of the push.
func (g *opGen) draw(issue string, label store.Label) int {
	key := issue + "/" + string(label)
	k := g.drawn[key]
	g.drawn[key] = k + 1
	return k
}

// fill assigns a push its run id and run index, and numbers the op.
func (g *opGen) fill(o op) op {
	o.Seq = g.seq
	g.seq++
	if o.Label != "" {
		k := g.draw(o.Issue, o.Label)
		o.RunID = strconv.Itoa(k)
		o.Runs = []int{k % runSpace}
	}
	return o
}

// setup returns the pushes that load the baseline corpus (and initial
// candidates) before measuring, issue by issue.
func (g *opGen) setup() []op {
	var ops []op
	for _, id := range g.wl.issues {
		for i := 0; i < g.wl.baselines; i++ {
			ops = append(ops, g.fill(op{Round: -1, Kind: kindPush, Issue: id, Label: store.LabelNormal}))
		}
		for i := 0; i < g.wl.candidates; i++ {
			ops = append(ops, g.fill(op{Round: -1, Kind: kindPush, Issue: id, Label: store.LabelCandidate}))
		}
	}
	return ops
}

// round returns round r in its seeded order. Rounds must be requested in
// order, after setup.
func (g *opGen) round(r int) []op {
	ops := g.wl.round(g.wl.issues)
	rand.New(rand.NewSource(int64(hashSeed(g.seed, g.wl.name, "round", strconv.Itoa(r))))).
		Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].Round = r
		ops[i] = g.fill(ops[i])
		switch ops[i].Kind {
		case kindDiagnose:
			ops[i].Check = (g.diagSeq+g.checkOffset)%10 == 0
			g.diagSeq++
		case kindOneshot:
			// Round 0 is the Table 3 protocol: runs 0-4.
			for k := 0; k < oneshotRuns; k++ {
				ops[i].Runs = append(ops[i].Runs, (r*oneshotRuns+k)%runSpace)
			}
		}
	}
	return ops
}
