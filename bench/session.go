package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/sketch"
	"vprof/internal/store"
)

// renderTop is the service's default report depth (service.Config.Top).
const renderTop = 10

// table3Ranks are the root-cause ranks of the Table 3 protocol (runs 0-4 on
// each side), which round 0 of the offline workload must reproduce.
var table3Ranks = map[string]int{
	"b1": 2, "b2": 2, "b3": 2, "b4": 1, "b5": 1, "b6": 3, "b7": 2, "b8": 2,
	"b9": 2, "b10": 1, "b11": 3, "b12": 3, "b13": 3, "b14": 2, "b15": 4,
	"u1": 4, "u2": 1, "u3": 1,
}

// config parameterizes one run of one workload.
type config struct {
	seed      int64
	rounds    int // rounds measured
	setupReps int
	trace     bool
	// dir is a scratch directory for the stores; the run removes it.
	dir string
}

// source identifies the profiled execution behind a stored blob, so that a
// served diagnosis can be recomputed from scratch after the run.
type source struct {
	issue string
	label store.Label
	run   int
}

// diagnosis is a served diagnosis kept for the render check.
type diagnosis struct {
	issue      string
	sketches   bool
	baselines  []string // blob ids, corpus order
	candidates []string
	render     string
}

// session is one run of one workload.
type session struct {
	wl    *workload
	cfg   config
	gen   *opGen
	agent *agent
	dep   *deployment
	tr    *tracer // trace mode only

	mu      sync.Mutex
	sources map[string]source // blob id → execution
	acked   int
	dups    int
	latest  map[string]int // cluster-mix: issue → highest acked candidate run id
	checks  []diagnosis
	ranks   map[string]int // offline: round-0 root-cause ranks

	// Trace mode replays the service's own steps; these mirror its
	// resolver, per-workload sketch corpus cache and memo.
	resolver service.Resolver
	corpora  map[string]corpusEntry
	memo     map[string]diagnosis
}

// report is the outcome of one run.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Counters  map[string]float64 `json:"counters,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	// LatencyMS holds every successful op's latency, for compare's
	// distribution test.
	LatencyMS []float64 `json:"latency_ms,omitempty"`
	// Layers is the traced run's self time per op by module, in ms.
	Layers map[string]float64 `json:"layers,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up cfg.setupReps times (the last set-up
// serves the run), runs cfg.rounds rounds of ops, checks the outputs and
// reports the metrics.
func runWorkload(wl *workload, cfg config) (*report, *tracer, error) {
	s := newSession(wl, cfg)
	defer s.close()
	setupS, err := s.prepare()
	if err != nil {
		return nil, nil, err
	}
	rep, err := s.measure(setupS)
	if err != nil {
		return nil, nil, err
	}
	problems, counters, err := s.gates()
	if err != nil {
		return nil, nil, err
	}
	rep.Problems = append(rep.Problems, problems...)
	rep.Counters = counters
	rep.Correct = len(rep.Problems) == 0
	return rep, s.tr, nil
}

func newSession(wl *workload, cfg config) *session {
	s := &session{wl: wl, cfg: cfg, gen: newOpGen(wl, cfg.seed)}
	if cfg.trace {
		s.tr = newTracer()
		s.resolver = resolver()
		s.corpora = map[string]corpusEntry{}
		s.memo = map[string]diagnosis{}
	}
	return s
}

// close stops the service and removes the scratch directory.
func (s *session) close() {
	_ = s.tearDown() // a failed close only matters to the gates, which check it
	_ = os.RemoveAll(s.cfg.dir)
}

// prepare profiles the set-up corpus, then sets the workload up
// cfg.setupReps times, keeping the last set-up, and returns each set-up's
// duration in seconds.
func (s *session) prepare() ([]float64, error) {
	// The set-up corpus is the agents' earlier output, not set-up work: it
	// is profiled and encoded before any timing starts.
	setupOps := s.gen.setup()
	bundles, err := inputs(s.wl.issues, setupOps)
	if err != nil {
		return nil, fmt.Errorf("generate set-up inputs: %w", err)
	}
	var setupS []float64
	for i := 0; i < s.cfg.setupReps; i++ {
		dir := filepath.Join(s.cfg.dir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if err := s.setUp(dir, setupOps, bundles); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < s.cfg.setupReps-1 {
			if err := s.tearDown(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	return setupS, nil
}

// measure runs cfg.rounds rounds of ops on the workload's clients and
// reports the end-to-end metrics, or in trace mode the per-layer ones.
func (s *session) measure(setupS []float64) (*report, error) {
	l := &loop{gen: s.gen, rounds: s.cfg.rounds}
	exec := s.exec
	if s.tr != nil {
		exec = s.traceOp
	}
	var hits0 store.CacheStats
	if s.dep != nil {
		hits0 = s.dep.backend.CacheStats()
	}
	alloc0, cpu0 := heapAllocated(), cpuTime()
	results, window := l.run(s.wl.clients, exec)
	cpu, alloc := cpuTime()-cpu0, heapAllocated()-alloc0

	rep := &report{Workload: s.wl.name, Seed: s.cfg.seed, Trace: s.cfg.trace, Metrics: map[string]metric{}}
	var lat []float64
	for _, r := range results {
		rep.Attempted++
		if r.err != nil {
			rep.Failed++
			if rep.Failed <= 3 {
				rep.Problems = append(rep.Problems, fmt.Sprintf("op %d (%s %s): %v", r.op.Seq, r.op.Kind, r.op.Issue, r.err))
			}
			continue
		}
		lat = append(lat, r.ms)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no op succeeded: %v", rep.Problems)
	}
	if s.tr != nil {
		var hitRatio float64
		if s.dep != nil {
			h := s.dep.backend.CacheStats()
			if n := (h.Hits - hits0.Hits) + (h.Misses - hits0.Misses); n > 0 {
				hitRatio = float64(h.Hits-hits0.Hits) / float64(n)
			}
		}
		rep.Metrics, rep.Layers = s.tr.layerMetrics(hitRatio)
		return rep, nil
	}
	rep.Metrics["setup_s"] = metric{median(setupS), "s"}
	rep.Metrics["ops_per_s"] = metric{float64(len(lat)) / window.Seconds(), "ops/s"}
	rep.Metrics["op_p50_ms"] = metric{hdQuantile(lat, 0.5), "ms"}
	rep.Metrics["op_p90_ms"] = metric{hdQuantile(lat, 0.9), "ms"}
	rep.Metrics["cpu_ms_per_op"] = metric{float64(cpu) / 1e6 / float64(rep.Attempted), "ms"}
	rep.Metrics["alloc_mb_per_op"] = metric{float64(alloc) / (1 << 20) / float64(rep.Attempted), "MiB"}
	rep.LatencyMS = lat
	return rep, nil
}

// inputs profiles and encodes the set-up pushes, two at a time.
func inputs(issues []string, ops []op) ([][]byte, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	a, err := newAgent(issues)
	if err != nil {
		return nil, err
	}
	return parallel.MapErr(parallel.Workers(0), len(ops), func(i int) ([]byte, error) {
		return a.bundle(ops[i].Issue, ops[i].Label, ops[i].Runs[0])
	})
}

// setUp builds the agent's programs, deploys the service over fresh stores
// in dir and pushes the set-up corpus through it.
func (s *session) setUp(dir string, ops []op, bundles [][]byte) error {
	s.sources = map[string]source{}
	s.latest = map[string]int{}
	s.ranks = map[string]int{}
	s.acked, s.dups, s.checks = 0, 0, nil
	var err error
	if s.agent, err = newAgent(s.wl.issues); err != nil {
		return err
	}
	if s.wl.offline {
		return nil
	}
	if s.dep, err = deploy(dir, s.wl.cluster); err != nil {
		return err
	}
	var next int
	var mu sync.Mutex
	errs := make([]error, s.wl.clients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(ops) {
					return
				}
				if errs[c] = s.push(ops[i], bundles[i]); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// tearDown stops the service and closes its stores.
func (s *session) tearDown() error {
	if s.dep == nil {
		return nil
	}
	err := s.dep.close()
	s.dep = nil
	return err
}

// push uploads one bundle through the service.
func (s *session) push(o op, blob []byte) error {
	res, err := s.dep.client.PushBlob(o.Issue, o.Label, o.RunID, blob)
	if err != nil {
		return err
	}
	s.record(o, res.ID, res.Dup)
	return nil
}

// record notes an acknowledged push.
func (s *session) record(o op, id string, dup bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acked++
	if dup {
		s.dups++
	}
	s.sources[id] = source{o.Issue, o.Label, o.Runs[0]}
	if o.Label == store.LabelCandidate {
		if k, _ := strconv.Atoi(o.RunID); k >= s.latest[o.Issue] {
			s.latest[o.Issue] = k
		}
	}
}

func (s *session) latestCandidate(issue string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strconv.Itoa(s.latest[issue])
}

func (s *session) keep(d diagnosis) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checks = append(s.checks, d)
}

// exec runs one op through the HTTP API, as an agent or an operator would.
func (s *session) exec(o op) error {
	switch o.Kind {
	case kindPush:
		blob, err := s.agent.bundle(o.Issue, o.Label, o.Runs[0])
		if err != nil {
			return err
		}
		return s.push(o, blob)
	case kindDiagnose:
		req := service.DiagnoseRequest{Workload: o.Issue}
		if s.wl.cluster {
			req.Sketches = true
			req.Candidates = []string{s.latestCandidate(o.Issue)}
		} else {
			blob, err := s.agent.bundle(o.Issue, o.Label, o.Runs[0])
			if err != nil {
				return err
			}
			if err := s.push(o, blob); err != nil {
				return err
			}
			req.Candidates = []string{o.RunID}
		}
		resp, err := s.dep.client.Diagnose(req)
		if err != nil {
			return err
		}
		if o.Check {
			s.keep(diagnosis{o.Issue, req.Sketches, resp.Baselines, resp.Candidates, resp.Render})
		}
		return nil
	case kindOneshot:
		b, err := bugs.ByID(o.Issue).Build()
		if err != nil {
			return err
		}
		type pair struct{ normal, buggy *sampler.Profile }
		pairs, err := parallel.MapErr(parallel.Workers(0), len(o.Runs), func(i int) (pair, error) {
			n, err := profile(b, store.LabelNormal, o.Runs[i])
			if err != nil {
				return pair{}, err
			}
			bp, err := profile(b, store.LabelCandidate, o.Runs[i])
			return pair{n, bp}, err
		})
		if err != nil {
			return err
		}
		in := analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema}
		for _, p := range pairs {
			in.Normal = append(in.Normal, p.normal)
			in.Buggy = append(in.Buggy, p.buggy)
		}
		rep, err := analysis.AnalyzeContext(context.Background(), in, analysis.DefaultParams())
		if err != nil {
			return err
		}
		_ = rep.Render(renderTop)
		s.noteRank(o, rep)
		return nil
	}
	return fmt.Errorf("unknown op kind %q", o.Kind)
}

func (s *session) noteRank(o op, rep *analysis.Report) {
	if o.Round != 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ranks[o.Issue] = rep.Rank(bugs.ByID(o.Issue).RootFunc)
}

// gates checks the run's outputs and returns every violation, plus the
// service counters scraped from GET /metrics. It stops the service.
func (s *session) gates() (problems []string, counters map[string]float64, err error) {
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if s.wl.offline {
		for id, want := range table3Ranks {
			if got, ok := s.ranks[id]; ok && got != want {
				fail("offline %s: root cause ranked %d, Table 3 ranks it %d", id, got, want)
			}
		}
		for _, id := range s.wl.issues {
			if _, ok := s.ranks[id]; !ok {
				fail("offline %s: round 0 did not diagnose it", id)
			}
		}
		return problems, nil, nil
	}

	scraped, err := scrape(s.dep.base)
	if err != nil {
		return nil, nil, err
	}
	counters = map[string]float64{}
	for _, name := range reportedCounters {
		counters[name] = scraped[name]
	}
	if s.dups != 0 {
		fail("%d of %d pushes acknowledged as duplicates", s.dups, s.acked)
	}
	if s.dep.st != nil {
		if n := len(s.dep.st.Entries("")); n != s.acked {
			fail("store holds %d entries after %d acknowledged pushes", n, s.acked)
		}
	}
	if s.wl.name == "diagnose" && counters["vprof_diagnose_memo_hits_total"] != 0 {
		fail("%v diagnoses were served from the memo; every op names a fresh candidate", counters["vprof_diagnose_memo_hits_total"])
	}
	if n := counters["vprof_cluster_node_errors_total"]; n != 0 {
		fail("%v cluster node errors", n)
	}
	for i, st := range s.dep.stores {
		if n := st.SketchStats().Rebuilds; n != 0 {
			fail("%s: %d sketches rebuilt from raw blobs", s.dep.dirs[i], n)
		}
	}
	dirs := s.dep.dirs
	if err := s.tearDown(); err != nil {
		return nil, nil, err
	}
	for _, dir := range dirs {
		rep, err := store.Fsck(dir)
		if err != nil {
			return nil, nil, err
		}
		if !rep.Clean() {
			fail("fsck %s: %s", dir, strings.Join(rep.Issues, "; "))
		}
	}
	for _, d := range s.checks {
		want, err := s.recompute(d)
		if err != nil {
			return nil, nil, fmt.Errorf("recompute %s diagnosis: %w", d.issue, err)
		}
		if want != d.render {
			fail("%s: served render differs from the offline analysis of the same profiles", d.issue)
		}
	}
	return problems, counters, nil
}

// recompute re-profiles a diagnosis's inputs from their run indices and
// analyzes them with no store or service involved: the full analysis for a
// full-path diagnosis, the sketch analysis for a sketch-path one.
func (s *session) recompute(d diagnosis) (string, error) {
	b := s.agent.built[d.issue]
	load := func(ids []string) ([]*sampler.Profile, error) {
		var ps []*sampler.Profile
		for _, id := range ids {
			src, ok := s.sources[id]
			if !ok {
				return nil, fmt.Errorf("blob %s was never pushed", id)
			}
			p, err := profile(b, src.label, src.run)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		return ps, nil
	}
	normal, err := load(d.baselines)
	if err != nil {
		return "", err
	}
	buggy, err := load(d.candidates)
	if err != nil {
		return "", err
	}
	if len(normal) == 0 || len(buggy) == 0 {
		return "", fmt.Errorf("diagnosis has %d baselines and %d candidates", len(normal), len(buggy))
	}
	var rep *analysis.Report
	if d.sketches {
		in := analysis.SketchInput{Debug: b.Prog.Debug, Schema: b.Schema, Corpus: analysis.NewCorpus()}
		for i, p := range normal {
			sk := sketch.FromProfile(p)
			if i == 0 {
				in.Normal = sk
			}
			in.Corpus.AddSketch(sk, b.Prog.Debug)
		}
		for _, p := range buggy {
			in.Buggy = append(in.Buggy, sketch.FromProfile(p))
		}
		rep, err = analysis.AnalyzeSketches(in, analysis.DefaultParams())
	} else {
		rep, err = analysis.Analyze(analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema, Normal: normal, Buggy: buggy}, analysis.DefaultParams())
	}
	if err != nil {
		return "", err
	}
	return rep.Render(renderTop), nil
}

// reportedCounters are the service counters a run reports beside its
// metrics: retries and sheds (load the closed loop should never cause), the
// memo and decode-cache effectiveness, and the cluster's repair and failure
// counts.
var reportedCounters = []string{
	"vprof_client_retries_total",
	"vprof_shed_total",
	"vprof_diagnose_memo_hits_total",
	"vprof_store_decode_cache_hits_total",
	"vprof_store_decode_cache_misses_total",
	"vprof_cluster_read_repairs_total",
	"vprof_cluster_quorum_failures_total",
	"vprof_cluster_node_errors_total",
}

// scrape reads GET /metrics and sums each family over its label sets.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, nil
}
