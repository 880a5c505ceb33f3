package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vprof/internal/faultfs"
	"vprof/internal/service"
	"vprof/internal/store"
)

// A schedule file's first line states the expected outcome as key=value
// pairs, checked after the last step:
//
//	acked=N     pushes acknowledged, retries included
//	rejected=N  pushes refused with the retryable 503
//	health=S    worst status a health step read (ok < degraded < unavailable)
//	fires=F     fault F (partition, slow, dup, crash) took effect
//
// Every later line is one step; '#' starts a comment. After every step the
// runner calls the Checker, and a violation fails the schedule as
// file:line: step: invariant: detail.
type schedule struct {
	path   string
	expect [][2]string
	steps  [][]string // keyword and arguments
	lines  []int
}

// stepDef is one step keyword: its argument count bounds, its usage and
// its implementation.
type stepDef struct {
	min, max int
	usage    string
	run      func(r *runner, args []string) error
}

var steps = map[string]stepDef{
	"deploy":      {1, 4, "single | cluster N [except NODE]", (*runner).deploy},
	"coordinator": {2, 2, "workers K", (*runner).coordinator},
	"kill":        {1, 1, "NODE", nodeStep("kill")},
	"restart":     {1, 1, "NODE", nodeStep("restart")},
	"fsck":        {1, 1, "NODE", nodeStep("fsck")},
	"join":        {1, 1, "NODE", (*runner).join},
	"crash":       {4, 4, "NODE every-mutation during PHASE", nodeStep("crash")},
	Partition:     {1, 3, "NODE...", inject(Partition)},
	Slow:          {1, 3, "NODE...", inject(Slow)},
	Dup:           {1, 3, "NODE...", inject(Dup)},
	"heal":        {0, 0, "", func(r *runner, _ []string) error { r.d.Net.Heal(); return nil }},
	"push":        {1, 6, "all | BUG | WORKLOAD LABEL RUNS seed S, then [rejected]", (*runner).push},
	"retry":       {0, 0, "", func(r *runner, _ []string) error { q := r.queued; r.queued = nil; return r.pushBatch(q, false) }},
	"diagnose":    {1, 2, "BUG|all [cached|sketches]", (*runner).diagnose},
	"baselines":   {1, 1, "WORKLOAD", (*runner).baselines},
	"lookup":      {3, 3, "WORKLOAD LABEL RUN", (*runner).lookup},
	"rebalance":   {0, 0, "", (*runner).rebalance},
	"converged":   {0, 0, "", (*runner).converged},
	"health":      {1, 1, "ok|degraded|unavailable", (*runner).health},
	"metrics":     {0, 9, "[NAME=VALUE...]", (*runner).metrics},
	"golden":      {1, 1, "FILE", (*runner).golden},
}

func parse(path string) (*schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &schedule{path: path}
	for i, line := range strings.Split(string(data), "\n") {
		text, _, _ := strings.Cut(line, "#")
		args := strings.Fields(text)
		if len(args) == 0 {
			continue
		}
		if s.expect == nil {
			for _, kv := range args[1:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || !slices.Contains([]string{"acked", "rejected", "health", "fires"}, k) {
					return nil, fmt.Errorf("%s:%d: bad outcome %q", path, i+1, kv)
				}
				s.expect = append(s.expect, [2]string{k, v})
			}
			if args[0] != "expect" || s.expect == nil {
				return nil, fmt.Errorf("%s:%d: the first line must state the expected outcome: expect key=value ...", path, i+1)
			}
			continue
		}
		def, ok := steps[args[0]]
		if n := len(args) - 1; !ok || n < def.min || n > def.max {
			return nil, fmt.Errorf("%s:%d: want %s %s", path, i+1, args[0], def.usage)
		}
		s.steps, s.lines = append(s.steps, args), append(s.lines, i+1)
	}
	if s.expect == nil {
		return nil, fmt.Errorf("%s: empty schedule", path)
	}
	return s, nil
}

// Run executes the schedule file at path under t. A schedule with a crash
// step first runs fault-free to count the mutation points of its crash
// window, then once per point as subtest crash-at-NN, the victim's disk
// dying at that point (torn on even points).
func Run(t *testing.T, path string) {
	t.Helper()
	s, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	points := s.run(t, 0)
	if !slices.ContainsFunc(s.steps, func(st []string) bool { return st[0] == "crash" }) {
		return
	}
	if points < 10 {
		t.Fatalf("%s: suspiciously few crash points: %d", path, points)
	}
	t.Logf("%s: %d crash points", path, points)
	for n := 1; n <= points; n++ {
		t.Run(fmt.Sprintf("crash-at-%02d", n), func(t *testing.T) { s.run(t, n) })
	}
}

// runner is one execution of a schedule.
type runner struct {
	t *testing.T
	s *schedule
	d *Deployment
	c *Checker

	// crashAt is the crash point this run arms (0 = fault-free); victim
	// and inj are the open crash window; points is the window's mutation
	// count on the fault-free run.
	crashAt int
	victim  *Node
	inj     *faultfs.Injector
	points  int

	acked, refused int
	queued         []blobPush // refused with the retryable 503, awaiting retry
	worst          string
	rows           map[string]*replayRow
	renders        map[string]string // first full render per issue on the current front end
}

// run executes every step and checks the outcome, returning the crash
// window's mutation count.
func (s *schedule) run(t *testing.T, crashAt int) int {
	t.Helper()
	r := &runner{t: t, s: s, c: newChecker(), crashAt: crashAt, worst: "ok",
		rows: map[string]*replayRow{}, renders: map[string]string{}}
	defer func() {
		if r.d != nil {
			r.d.Close()
		}
	}()
	for i, st := range s.steps {
		err := violation("syntax", "deploy exactly once, first")
		if (r.d == nil) == (st[0] == "deploy") {
			if err = steps[st[0]].run(r, st[1:]); err == nil {
				err = r.c.Check(r.d)
			}
		}
		if v := (*Violation)(nil); err != nil && !errors.As(err, &v) {
			err = violation("run", "%v", err)
		}
		if err != nil {
			t.Fatalf("%s:%d: %s: %v", s.path, s.lines[i], strings.Join(st, " "), err)
		}
	}
	for _, kv := range s.expect {
		got := map[string]string{"acked": strconv.Itoa(r.acked), "rejected": strconv.Itoa(r.refused), "health": r.worst}[kv[0]]
		switch {
		case kv[0] != "fires" && got != kv[1]:
			t.Fatalf("%s:1: expect: outcome: %s=%s, want %s", s.path, kv[0], got, kv[1])
		case kv[0] == "fires" && r.d.Net.Count(kv[1]) == 0 && (kv[1] != "crash" || crashAt > 0):
			// (The fault-free run of a crash schedule arms no crash.)
			t.Fatalf("%s:1: expect: outcome: fault %s never fired", s.path, kv[1])
		}
	}
	return r.points
}

func (r *runner) deploy(args []string) (err error) {
	switch n, convErr := strconv.Atoi(args[min(1, len(args)-1)]); {
	case len(args) == 1 && args[0] == "single":
		r.d, err = NewSingle(r.t.TempDir())
	case args[0] == "cluster" && convErr == nil && (len(args) == 2 || len(args) == 4 && args[2] == "except"):
		r.d, err = NewCluster(r.t.TempDir(), n, args[min(3, len(args)):]...)
	default:
		err = violation("syntax", "deploy single | deploy cluster N [except NODE]")
	}
	return err
}

// coordinator workers K starts a cold front end analyzing on K workers.
func (r *runner) coordinator(args []string) error {
	k, err := strconv.Atoi(args[1])
	if args[0] != "workers" || err != nil || r.d.Store != nil {
		return violation("syntax", "coordinator workers K, on a cluster")
	}
	r.renders = map[string]string{}
	return r.d.Coordinator(k)
}

// join NODE starts a new node and adds it to the current coordinator; a
// rebalance then populates it.
func (r *runner) join(args []string) error {
	if r.d.Router == nil || r.d.Node(args[0]) != nil {
		return violation("syntax", "join a new node to a cluster")
	}
	n := r.d.AddNode(args[0])
	r.d.Router.AddNode(n.Ref())
	return n.Start(nil)
}

func inject(fault string) func(*runner, []string) error {
	return func(r *runner, hosts []string) error { r.d.Net.Inject(fault, hosts...); return nil }
}

// nodeStep runs the steps that act on one node:
//
//	kill NODE      whole-node loss: the store closes, the address refuses
//	restart NODE   reopen on a healthy disk (recovery runs); closes the
//	               crash window NODE is the victim of
//	fsck NODE      stop NODE and check its directory offline
//	crash NODE every-mutation during PHASE
//	               start NODE on a crash injector, opening a crash window
//	               its restart closes; the node may die while it opens, and
//	               a rebalance in the window may fail once it died
func nodeStep(kw string) func(*runner, []string) error {
	return func(r *runner, args []string) error {
		n := r.d.Node(args[0])
		if n == nil || kw == "crash" && (args[1] != "every-mutation" || args[2] != "during") {
			return violation("syntax", "%s: no node %q, or not crash NODE every-mutation during PHASE", kw, args[0])
		}
		switch kw {
		case "kill":
			n.Kill()
		case "crash":
			r.victim, r.inj = n, faultfs.NewInjector(nil)
			if r.crashAt > 0 {
				r.inj.CrashAt(r.crashAt)
				r.inj.SetTorn(r.crashAt%2 == 0)
			}
			if err := n.Start(r.inj); err != nil && !r.inj.Crashed() {
				return err
			}
		case "fsck":
			n.Kill()
			rep, err := store.Fsck(n.Dir)
			if err == nil && !rep.Clean() {
				err = violation("fsck", "%s not clean after recovery:\n%s", n.ID, rep.Render())
			}
			return err
		case "restart":
			if n == r.victim {
				// The window closes once the victim's store has closed:
				// the folds of its acked pushes log their sketch frames
				// and the sketch log syncs inside it.
				n.Kill()
				switch {
				case r.crashAt == 0:
					r.points = r.inj.Mutations()
				case !r.inj.Crashed():
					return violation("crash-point", "crash point %d never reached (the window made %d mutations)",
						r.crashAt, r.inj.Mutations())
				default:
					r.d.Net.locked(func() { r.d.Net.counts["crash"]++ })
				}
				r.victim, r.inj = nil, nil
			}
			return n.Start(nil)
		}
		return nil
	}
}

// push all | push BUG pushes the replay blobs of every reproduced bug (or
// of one, such as b13), each bug's runs concurrently. push WORKLOAD LABEL
// RUNS seed S pushes synthetic blobs one at a time, one per run of RUNS (N
// or A-B), seeded S, S+1, ... A trailing "rejected" expects each push to be
// refused with the retryable 503, and queues it for the retry step.
func (r *runner) push(args []string) error {
	rejected := args[len(args)-1] == "rejected"
	if rejected {
		args = args[:len(args)-1]
	}
	var batches [][]blobPush
	switch {
	case len(args) == 5 && args[3] == "seed":
		label, err := store.ParseLabel(args[1])
		lo, hi, isRange := strings.Cut(args[2], "-")
		if !isRange {
			hi = lo
		}
		first, err1 := strconv.Atoi(lo)
		last, err2 := strconv.Atoi(hi)
		seed, err3 := strconv.ParseInt(args[4], 10, 64)
		if err := errors.Join(err, err1, err2, err3); err != nil {
			return violation("syntax", "%v", err)
		}
		for run := first; run <= last; run++ {
			batches = append(batches, []blobPush{{key{args[0], label, strconv.Itoa(run)}, SyntheticBlob(seed + int64(run-first))}})
		}
	case len(args) == 1:
		if args[0] == "all" && r.d.Store == nil && raceEnabled() {
			r.t.Skip("replaying every issue on a cluster is minutes-slow under the race detector")
		}
		for _, id := range issues(args[0]) {
			data, err := replayWorkload(id)
			if err != nil {
				return err
			}
			batches = append(batches, data.pushes)
		}
	default:
		return violation("syntax", "push all | BUG | WORKLOAD LABEL RUNS seed S, then [rejected]")
	}
	for _, b := range batches {
		if err := r.pushBatch(b, rejected); err != nil {
			return err
		}
	}
	return nil
}

// raceEnabled reports whether the binary runs under the race detector,
// where the 18-issue cluster replay skips: three stores at race-detector
// speed take minutes, while the crash and fault schedules keep -race
// coverage of the cluster logic.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// pushBatch sends a batch concurrently and checks each reply against what
// the step expects: an ack, or the retryable 503 when rejected is set.
func (r *runner) pushBatch(batch []blobPush, rejected bool) error {
	res := make([]*service.PushResult, len(batch))
	errs := make([]error, len(batch))
	var wg sync.WaitGroup
	for i, p := range batch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = r.d.Agent.PushBlob(p.k.workload, p.k.label, p.k.run, p.blob)
		}()
	}
	wg.Wait()
	for i, p := range batch {
		switch err := errs[i]; {
		case err == nil && !rejected:
			r.acked++
			r.c.pushed(p.k, res[i].ID, res[i].Dup)
		case err != nil && rejected && errors.Is(err, service.ErrOverloaded) && strings.Contains(err.Error(), "HTTP 503"):
			r.refused++
			r.queued = append(r.queued, p)
		case err != nil:
			return violation("ack", "push %s: %v", p.k, err)
		default:
			return violation("ack", "push %s acked, want the retryable 503", p.k)
		}
	}
	return nil
}

// issues expands "all" to every replayed issue.
func issues(id string) []string {
	if id != "all" {
		return []string{id}
	}
	var ids []string
	for _, w := range replayIssues {
		ids = append(ids, w.ID)
	}
	return ids
}

// diagnose BUG|all runs one full diagnosis per issue, checked against
// the offline render. "cached" repeats it, which the memo must answer with
// the same render. "sketches" runs a sketch-mode diagnosis, checked against
// the offline sketch render, which must leave the decode cache untouched.
func (r *runner) diagnose(args []string) error {
	mode := strings.Join(args[1:], "")
	if mode != "" && mode != "cached" && mode != "sketches" {
		return violation("syntax", "diagnose BUG|all [cached|sketches]")
	}
	for _, id := range issues(args[0]) {
		data, err := replayWorkload(id)
		if err != nil {
			return err
		}
		before := r.d.Backend.CacheStats()
		resp, err := r.d.Agent.Diagnose(service.DiagnoseRequest{Workload: id, Top: replayTop, Sketches: mode == "sketches"})
		if err != nil {
			return violation("offline", "diagnose %s: %v", id, err)
		}
		switch after := r.d.Backend.CacheStats(); mode {
		case "sketches":
			if after.Hits != before.Hits || after.Misses != before.Misses {
				return violation("decode-cache", "%s: sketch diagnosis touched the decode cache: %+v -> %+v", id, before, after)
			}
			r.c.observe("offline", id+" sketch render", resp.Render, data.offlineSketch)
		case "cached":
			if first, ok := r.renders[id]; !ok || !resp.Cached || resp.Render != first {
				return violation("memo", "%s: second diagnosis was not served from the memo cache", id)
			}
			r.rows[id].CachedSecond = true
		default:
			r.renders[id] = resp.Render
			r.c.observe("offline", id+" render", resp.Render, data.offline)
			r.rows[id] = &replayRow{ID: id, RootFunc: data.w.RootFunc, OfflineRank: data.offlineRank,
				ServiceRank: resp.RootRank(data.w.RootFunc), RenderMatch: resp.Render == data.offline}
		}
	}
	return nil
}

// baselines WORKLOAD is one merged baseline read at the front end's
// backend, which must return the acked normal runs in run order.
func (r *runner) baselines(args []string) error {
	var got []string
	for _, e := range r.d.Backend.Baselines(args[0]) {
		got = append(got, e.ID)
	}
	want := r.c.ackedIDs(args[0], store.LabelNormal)
	r.c.observe("durable", "Baselines "+args[0], strings.Join(got, ","), strings.Join(want, ","))
	return nil
}

// lookup WORKLOAD LABEL RUN is one key read at the front end's backend.
func (r *runner) lookup(args []string) error {
	k, got := key{args[0], store.Label(args[1]), args[2]}, ""
	if e, ok := r.d.Backend.Lookup(k.workload, k.label, k.run); ok {
		got = e.ID
	}
	r.c.observe("durable", "Lookup "+k.String(), got, r.c.acked[k])
	return nil
}

// rebalance runs one anti-entropy pass, which must be clean unless the
// crash window's victim died during it.
func (r *runner) rebalance([]string) error {
	if r.d.Router == nil {
		return violation("syntax", "rebalance needs a cluster")
	}
	rep, err := r.d.Router.Rebalance(context.Background())
	if err != nil && (r.inj == nil || !r.inj.Crashed()) {
		return violation("rebalance", "%v (%s)", err, rep)
	}
	return nil
}

// converged: every acked push sits, readable, on every owner, and is
// served by Lookup. The owners are read first, so the step sees the state
// the previous steps left, not what its own merged reads repair.
func (r *runner) converged([]string) error {
	for _, k := range r.c.order {
		owners := r.d.Owners(k.workload, k.label, k.run)
		names, stores := r.d.stores(owners)
		if len(stores) < max(len(owners), 1) {
			return violation("converged", "an owner of %s is down", k)
		}
		for i, st := range stores {
			if e, ok := st.Lookup(k.workload, k.label, k.run); !ok || e.ID != r.c.acked[k] {
				return violation("converged", "owner %s lacks %s (%s)", names[i], k, r.c.acked[k])
			}
			if _, err := st.Get(r.c.acked[k]); err != nil {
				return violation("converged", "owner %s: acked blob %s unreadable: %v", names[i], r.c.acked[k], err)
			}
		}
	}
	for _, k := range r.c.order {
		if e, ok := r.d.Backend.Lookup(k.workload, k.label, k.run); !ok || e.ID != r.c.acked[k] {
			return violation("durable", "acked push %s (%s) not served by Lookup", k, r.c.acked[k])
		}
	}
	return nil
}

// get fetches path from the current front end.
func (r *runner) get(path string) (int, string, error) {
	resp, err := r.d.Net.Client().Get("http://" + r.d.front + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

var healthOrder = []string{"ok", "degraded", "unavailable"}

// health STATUS: /healthz reads STATUS, with HTTP 503 only for unavailable.
func (r *runner) health(args []string) error {
	code, body, err := r.get("/healthz")
	var h service.Health
	if err == nil {
		err = json.Unmarshal([]byte(body), &h)
	}
	if err != nil {
		return err
	}
	if slices.Index(healthOrder, h.Status) > slices.Index(healthOrder, r.worst) {
		r.worst = h.Status
	}
	want := http.StatusOK
	if args[0] == "unavailable" {
		want = http.StatusServiceUnavailable
	}
	if code != want || h.Status != args[0] {
		return violation("health", "HTTP %d, status %q, want %d %q (checks %v)", code, h.Status, want, args[0], h.Checks)
	}
	return nil
}

// Series every front end exports, and the ones its backend adds.
var (
	serviceSeries = []string{"vprof_http_requests_total", "vprof_http_request_duration_seconds",
		"vprof_http_requests_in_flight", "vprof_diagnose_duration_seconds", "vprof_diagnose_requests_total",
		"vprof_diagnose_memo_hits_total", "vprof_pool_slots", "vprof_panics_total", "vprof_shed_total",
		"vprof_client_retries_total"}
	storeSeries = []string{"vprof_store_segments_written_total", "vprof_store_ingest_bytes_total",
		"vprof_store_decode_cache_hits_total"}
	clusterSeries = []string{"vprof_replicas_healthy", "vprof_cluster_ingest_bytes_total",
		"vprof_cluster_read_repairs_total", "vprof_cluster_quorum_failures_total"}
)

// metrics checks that /metrics exposes the front end's series and its
// backend's; metrics NAME=VALUE ... checks unlabeled series values instead.
func (r *runner) metrics(args []string) error {
	_, body, err := r.get("/metrics")
	series := append(slices.Clone(serviceSeries), clusterSeries...)
	if r.d.Store != nil {
		series = append(slices.Clone(serviceSeries), storeSeries...)
	}
	for _, s := range series {
		if err == nil && len(args) == 0 && !strings.Contains(body, s) {
			err = violation("metrics", "exposition missing %s", s)
		}
	}
	for _, kv := range args {
		name, want, _ := strings.Cut(kv, "=")
		got := "absent"
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				got = v
			}
		}
		if err == nil && got != want {
			err = violation("metrics", "%s = %s, want %s", name, got, want)
		}
	}
	return err
}

// golden FILE: renderReplay over every issue's rows equals golden/FILE
// next to the schedule, byte for byte.
func (r *runner) golden(args []string) error {
	var rows []replayRow
	for _, w := range replayIssues {
		row, ok := r.rows[w.ID]
		if !ok {
			return violation("golden", "%s was never diagnosed", w.ID)
		}
		rows = append(rows, *row)
	}
	want, err := os.ReadFile(filepath.Join(filepath.Dir(r.s.path), "golden", args[0]))
	if got := renderReplay(rows); err == nil && got != string(want) {
		err = violation("golden", "%s: %s", args[0], mismatch(got, string(want)))
	}
	return err
}
