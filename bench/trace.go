package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/lang"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/sketch"
	"vprof/internal/store"
	"vprof/internal/vm"
)

// The traced run replays the op list in-process: instead of going through
// HTTP, the benchmark makes each layer's public calls itself, in the order
// the service makes them, and records a span around each. Span names are
// <package>.<Func> or <package>.<Type>.<Method>. Probe spans are roots of
// their own beside the op's span; they time work that is buried inside one
// public call (an unprofiled VM run inside ProfileRun, the decode and fold
// inside PutBlob, the compile steps inside Build), on the op's own inputs.

// Span is one timed layer call. Times are nanoseconds since the run began.
type Span struct {
	Op     int    `json:"op"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer keeps spans and per-op counts in memory until the run ends.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []Span
	counts map[int]map[string]float64 // op → count name → value
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[int]map[string]float64{}}
}

func (t *tracer) begin(op, parent int, name string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

func (t *tracer) count(op int, name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counts[op] == nil {
		t.counts[op] = map[string]float64{}
	}
	t.counts[op][name] = v
}

// traced runs fn inside a span.
func traced[T any](t *tracer, op, parent int, name string, fn func() (T, error)) (T, error) {
	id := t.begin(op, parent, name)
	defer t.end(id)
	return fn()
}

// corpusEntry mirrors the service's per-workload sketch corpus cache.
type corpusEntry struct {
	ids    string
	corpus *analysis.Corpus
}

// traceOp runs one op as a span tree, then its probes.
func (s *session) traceOp(o op) error {
	t := s.tr
	switch o.Kind {
	case kindPush:
		root := t.begin(o.Seq, 0, "bench.push")
		p, blob, err := s.tracePush(o, root)
		t.end(root)
		if err != nil {
			return err
		}
		return s.probe(o.Seq, s.agent.built[o.Issue], o.Label, o.Runs[0], p, blob)
	case kindDiagnose:
		root := t.begin(o.Seq, 0, "bench.diagnose")
		if s.wl.cluster {
			err := s.traceSketchDiagnose(o, root)
			t.end(root)
			return err
		}
		p, blob, err := s.tracePush(o, root)
		if err == nil {
			err = s.traceDiagnose(o, root)
		}
		t.end(root)
		if err != nil {
			return err
		}
		return s.probe(o.Seq, s.agent.built[o.Issue], o.Label, o.Runs[0], p, blob)
	case kindOneshot:
		root := t.begin(o.Seq, 0, "bench.oneshot")
		b, first, err := s.traceOneshot(o, root)
		t.end(root)
		if err != nil {
			return err
		}
		return s.probe(o.Seq, b, store.LabelNormal, o.Runs[0], first, nil)
	}
	return fmt.Errorf("unknown op kind %q", o.Kind)
}

// tracePush is the agent cycle plus the backend write the ingest handler
// makes.
func (s *session) tracePush(o op, parent int) (*sampler.Profile, []byte, error) {
	t := s.tr
	p, err := traced(t, o.Seq, parent, "sampler.ProfileRun", func() (*sampler.Profile, error) {
		return s.agent.profile(o.Issue, o.Label, o.Runs[0])
	})
	if err != nil {
		return nil, nil, err
	}
	blob, err := traced(t, o.Seq, parent, "profilefmt.Marshal", func() ([]byte, error) { return profilefmt.Marshal(p) })
	if err != nil {
		return nil, nil, err
	}
	name := "store.Store.PutBlob"
	if s.wl.cluster {
		name = "cluster.Router.PutBlob"
	}
	id := t.begin(o.Seq, parent, name)
	e, dup, err := s.dep.backend.PutBlob(o.Issue, o.Label, o.RunID, blob)
	t.end(id)
	if err != nil {
		return nil, nil, err
	}
	s.record(o, e.ID, dup)
	return p, blob, nil
}

// traceDiagnose follows the service's full diagnosis path: baselines and
// candidate from the store, every profile through the decode cache, the
// analysis, the render.
func (s *session) traceDiagnose(o op, parent int) error {
	t, st := s.tr, s.dep.st
	baselines, _ := traced(t, o.Seq, parent, "store.Store.Baselines", func() ([]*store.Entry, error) {
		return st.Baselines(o.Issue), nil
	})
	cand, err := traced(t, o.Seq, parent, "store.Store.Lookup", func() (*store.Entry, error) {
		e, ok := st.Lookup(o.Issue, store.LabelCandidate, o.RunID)
		if !ok {
			return nil, fmt.Errorf("candidate %s/%s not stored", o.Issue, o.RunID)
		}
		return e, nil
	})
	if err != nil {
		return err
	}
	dbg, sch, err := s.resolve(o, parent)
	if err != nil {
		return err
	}
	in := analysis.Input{Debug: dbg, Schema: sch}
	var bIDs []string
	for _, e := range append(baselines, cand) {
		p, err := traced(t, o.Seq, parent, "store.Store.Get", func() (*sampler.Profile, error) { return st.Get(e.ID) })
		if err != nil {
			return err
		}
		if e == cand {
			in.Buggy = append(in.Buggy, p)
		} else {
			in.Normal = append(in.Normal, p)
			bIDs = append(bIDs, e.ID)
		}
	}
	rep, err := traced(t, o.Seq, parent, "analysis.AnalyzeContext", func() (*analysis.Report, error) {
		return analysis.AnalyzeContext(context.Background(), in, analysis.DefaultParams())
	})
	if err != nil {
		return err
	}
	render, _ := traced(t, o.Seq, parent, "analysis.Report.Render", func() (string, error) { return rep.Render(renderTop), nil })
	if o.Check {
		s.keep(diagnosis{o.Issue, false, bIDs, []string{cand.ID}, render})
	}
	return nil
}

// resolve looks up the issue's debug info and schema as the service does;
// the first call per issue builds the program.
func (s *session) resolve(o op, parent int) (*debuginfo.Info, *schema.Schema, error) {
	id := s.tr.begin(o.Seq, parent, "service.Resolver.Resolve")
	defer s.tr.end(id)
	return s.resolver.Resolve(o.Issue)
}

// traceSketchDiagnose follows the service's sketch path over the cluster:
// merged baselines and candidate, the cached or node-folded corpus, the two
// sketches, the sketch analysis, the render. Like the service it answers a
// repeated (baselines, candidate) pair from its memo.
func (s *session) traceSketchDiagnose(o op, parent int) error {
	t, r := s.tr, s.dep.router
	run := s.latestCandidate(o.Issue)
	baselines, _ := traced(t, o.Seq, parent, "cluster.Router.Baselines", func() ([]*store.Entry, error) {
		return r.Baselines(o.Issue), nil
	})
	cand, err := traced(t, o.Seq, parent, "cluster.Router.Lookup", func() (*store.Entry, error) {
		e, ok := r.Lookup(o.Issue, store.LabelCandidate, run)
		if !ok {
			return nil, fmt.Errorf("candidate %s/%s not stored", o.Issue, run)
		}
		return e, nil
	})
	if err != nil {
		return err
	}
	if len(baselines) == 0 {
		return fmt.Errorf("%s has no baselines", o.Issue)
	}
	bIDs := make([]string, len(baselines))
	for i, e := range baselines {
		bIDs[i] = e.ID
	}
	idKey := strings.Join(bIDs, "\x00")
	key := idKey + "\x01" + cand.ID
	s.mu.Lock()
	d, hit := s.memo[key]
	ce := s.corpora[o.Issue]
	s.mu.Unlock()
	if !hit {
		dbg, sch, err := s.resolve(o, parent)
		if err != nil {
			return err
		}
		in := analysis.SketchInput{Debug: dbg, Schema: sch, Corpus: ce.corpus}
		if ce.ids != idKey {
			in.Corpus, err = traced(t, o.Seq, parent, "cluster.Router.Corpus", func() (*analysis.Corpus, error) {
				return r.Corpus(o.Issue, bIDs)
			})
			if err != nil {
				return err
			}
			s.mu.Lock()
			s.corpora[o.Issue] = corpusEntry{idKey, in.Corpus}
			s.mu.Unlock()
		}
		getSketch := func(id string) (*sketch.Profile, error) {
			return traced(t, o.Seq, parent, "cluster.Router.GetSketch", func() (*sketch.Profile, error) { return r.GetSketch(id) })
		}
		if in.Normal, err = getSketch(bIDs[0]); err != nil {
			return err
		}
		sk, err := getSketch(cand.ID)
		if err != nil {
			return err
		}
		in.Buggy = []*sketch.Profile{sk}
		rep, err := traced(t, o.Seq, parent, "analysis.AnalyzeSketchesContext", func() (*analysis.Report, error) {
			return analysis.AnalyzeSketchesContext(context.Background(), in, analysis.DefaultParams())
		})
		if err != nil {
			return err
		}
		render, _ := traced(t, o.Seq, parent, "analysis.Report.Render", func() (string, error) { return rep.Render(renderTop), nil })
		d = diagnosis{o.Issue, true, bIDs, []string{cand.ID}, render}
		s.mu.Lock()
		s.memo[key] = d
		s.mu.Unlock()
	}
	if o.Check {
		s.keep(d)
	}
	return nil
}

// traceOneshot is the offline pipeline with its profiling runs one after
// another, so that the op's spans never overlap. It returns the first
// profile for the probes.
func (s *session) traceOneshot(o op, parent int) (*bugs.Built, *sampler.Profile, error) {
	t := s.tr
	b, err := traced(t, o.Seq, parent, "bugs.Workload.Build", func() (*bugs.Built, error) { return bugs.ByID(o.Issue).Build() })
	if err != nil {
		return nil, nil, err
	}
	in := analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema}
	for _, run := range o.Runs {
		for _, label := range []store.Label{store.LabelNormal, store.LabelCandidate} {
			p, err := traced(t, o.Seq, parent, "sampler.ProfileRun", func() (*sampler.Profile, error) { return profile(b, label, run) })
			if err != nil {
				return nil, nil, err
			}
			if label == store.LabelNormal {
				in.Normal = append(in.Normal, p)
			} else {
				in.Buggy = append(in.Buggy, p)
			}
		}
	}
	rep, err := traced(t, o.Seq, parent, "analysis.AnalyzeContext", func() (*analysis.Report, error) {
		return analysis.AnalyzeContext(context.Background(), in, analysis.DefaultParams())
	})
	if err != nil {
		return nil, nil, err
	}
	_, _ = traced(t, o.Seq, parent, "analysis.Report.Render", func() (string, error) { return rep.Render(renderTop), nil })
	s.noteRank(o, rep)
	return b, in.Normal[0], nil
}

// probe times, on the op's own inputs, the layer work its path buries or
// skips: the four compile steps of the issue's program, the same execution
// without the profiler, the bundle encode (when the path has none) and
// decode, and the sketch fold. Each is a root span of its own.
func (s *session) probe(opID int, b *bugs.Built, label store.Label, run int, p *sampler.Profile, blob []byte) error {
	t := s.tr
	src := b.BuggySource
	if label == store.LabelNormal {
		src = b.NormalSource
	}
	file := b.W.SourceFile
	if file == "" {
		file = b.W.ID + ".vp"
	}
	f, err := traced(t, opID, 0, "lang.Parse", func() (*lang.File, error) { return lang.Parse(file, src) })
	if err != nil {
		return err
	}
	prog, err := traced(t, opID, 0, "compiler.Compile", func() (*compiler.Program, error) { return compiler.Compile(f) })
	if err != nil {
		return err
	}
	sch, _ := traced(t, opID, 0, "schema.GenerateIR", func() (*schema.Schema, error) {
		return schema.GenerateIR(f, prog, schema.Options{}), nil
	})
	_, _ = traced(t, opID, 0, "schema.Translate", func() ([]debuginfo.VarLoc, error) {
		return schema.Translate(sch, prog.Debug), nil
	})

	runProg, _, cfg := target(b, label, run)
	ticks, _ := traced(t, opID, 0, "vm.RunProcesses", func() (int64, error) {
		procs := vm.RunProcesses(runProg, func(int) vm.Config { return cfg })
		var n int64
		for _, pr := range procs {
			n += pr.VM.Ticks()
		}
		vm.RecycleProcesses(procs)
		return n, nil
	})
	if blob == nil {
		if blob, err = traced(t, opID, 0, "profilefmt.Marshal", func() ([]byte, error) { return profilefmt.Marshal(p) }); err != nil {
			return err
		}
	}
	if _, err := traced(t, opID, 0, "profilefmt.Unmarshal", func() (*sampler.Profile, error) { return profilefmt.Unmarshal(blob) }); err != nil {
		return err
	}
	sk, _ := traced(t, opID, 0, "sketch.FromProfile", func() (*sketch.Profile, error) { return sketch.FromProfile(p), nil })
	enc, err := profilefmt.MarshalSketch(sk)
	if err != nil {
		return err
	}
	t.count(opID, "vm.ticks", float64(ticks))
	t.count(opID, "sampler.value_samples", float64(len(p.Samples)))
	t.count(opID, "profilefmt.bundle_kb", float64(len(blob))/1024)
	t.count(opID, "sketch.encoded_kb", float64(len(enc))/1024)
	return nil
}

// layerSpans maps the per-layer time metrics to the span they summarize.
var layerSpans = []struct{ metric, span string }{
	{"lang.parse_ms", "lang.Parse"},
	{"compiler.compile_ms", "compiler.Compile"},
	{"schema.generate_ms", "schema.GenerateIR"},
	{"schema.translate_ms", "schema.Translate"},
	{"vm.run_ms", "vm.RunProcesses"},
	{"sampler.profile_ms", "sampler.ProfileRun"},
	{"profilefmt.marshal_ms", "profilefmt.Marshal"},
	{"profilefmt.unmarshal_ms", "profilefmt.Unmarshal"},
	{"sketch.fold_ms", "sketch.FromProfile"},
}

// shareModules are the modules whose share of op time is reported; a
// module a workload's ops never reach reports 0.
var shareModules = []string{"sampler", "profilefmt", "store", "cluster", "analysis"}

// layerMetrics summarizes the spans: per-call p50s of the layer calls, the
// VM probe's cost per tick, the profiler's overhead over the unprofiled run
// of the same execution, p50s of the per-op counts, and each module's share
// of op self time. It also returns each module's self time per op.
func (t *tracer) layerMetrics(decodeHitRatio float64) (map[string]metric, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]metric{}
	byName := map[string][]float64{}
	type pair struct{ profile, run float64 }
	perOp := map[int]*pair{}
	for _, sp := range t.spans {
		ms := float64(sp.dur()) / 1e6
		byName[sp.Name] = append(byName[sp.Name], ms)
		pr := perOp[sp.Op]
		if pr == nil {
			pr = &pair{}
			perOp[sp.Op] = pr
		}
		switch {
		case sp.Name == "sampler.ProfileRun" && pr.profile == 0:
			pr.profile = ms // the op's first profiled run is the one probed
		case sp.Name == "vm.RunProcesses":
			pr.run = ms
		}
	}
	for _, ls := range layerSpans {
		out[ls.metric] = metric{median(byName[ls.span]), "ms"}
	}
	var overhead, nsPerTick []float64
	counts := map[string][]float64{}
	for op, pr := range perOp {
		c := t.counts[op]
		if pr.run == 0 || c == nil {
			continue
		}
		overhead = append(overhead, pr.profile/pr.run)
		nsPerTick = append(nsPerTick, pr.run*1e6/c["vm.ticks"])
		for k, v := range c {
			counts[k] = append(counts[k], v)
		}
	}
	out["sampler.overhead_ratio"] = metric{median(overhead), "ratio"}
	out["vm.ns_per_tick"] = metric{median(nsPerTick), "ns"}
	out["vm.ticks"] = metric{median(counts["vm.ticks"]), "count"}
	out["sampler.value_samples"] = metric{median(counts["sampler.value_samples"]), "count"}
	out["profilefmt.bundle_kb"] = metric{median(counts["profilefmt.bundle_kb"]), "KiB"}
	out["sketch.encoded_kb"] = metric{median(counts["sketch.encoded_kb"]), "KiB"}
	out["store.decode_cache_hit_ratio"] = metric{decodeHitRatio, "ratio"}

	self := selfTimes(t.spans)
	module := map[string]float64{}
	var total float64
	ops := map[int]bool{}
	for i, sp := range t.spans {
		if !strings.HasPrefix(rootOf(t.spans, i).Name, "bench.") {
			continue // probes are not op time
		}
		if sp.Parent == 0 {
			total += float64(sp.dur())
			ops[sp.Op] = true
		}
		mod, _, _ := strings.Cut(sp.Name, ".")
		module[mod] += float64(self[i])
	}
	perOpMS := map[string]float64{}
	for mod, ns := range module {
		perOpMS[mod] = ns / 1e6 / float64(len(ops))
	}
	for _, mod := range shareModules {
		out[mod+".share"] = metric{module[mod] / total, "ratio"}
	}
	return out, perOpMS
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []Span) []int64 {
	children := map[int][]Span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, sp.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = sp.dur() - covered
	}
	return self
}

// rootOf follows parent links from span i to its root. Span IDs are
// positions + 1, and a parent always precedes its children.
func rootOf(spans []Span, i int) Span {
	for spans[i].Parent != 0 {
		i = spans[i].Parent - 1
	}
	return spans[i]
}

// writeSpans writes every span as one JSON line, followed by a summary line
// holding the per-layer metrics and each module's self time per op.
func (t *tracer) writeSpans(path string, rep *report) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	summary := struct {
		Workload  string             `json:"workload"`
		Seed      int64              `json:"seed"`
		Metrics   map[string]metric  `json:"metrics"`
		SelfMSPer map[string]float64 `json:"self_ms_per_op"`
	}{rep.Workload, rep.Seed, rep.Metrics, rep.Layers}
	if err := enc.Encode(summary); err != nil {
		return err
	}
	return w.Flush()
}
