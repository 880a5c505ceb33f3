package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"strings"

	"vprof/internal/analysis"
	"vprof/internal/cluster"
	"vprof/internal/faultfs"
	"vprof/internal/obs"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/store"
)

func testProfile(seed int64) *sampler.Profile {
	p := &sampler.Profile{
		Pid:        int(seed%7) + 1,
		File:       "prog.vp",
		Interval:   97,
		TotalTicks: 10000 + seed,
		NumAlarms:  100 + seed%13,
		Hist:       make([]int64, 64),
		Layout: []sampler.LayoutEntry{
			{Func: "scan", Name: "n"},
			{Func: "#global", Name: "buf", IsPointer: true},
		},
	}
	for i := range p.Hist {
		p.Hist[i] = (seed*31 + int64(i)*7) % 5
	}
	for i := int64(0); i < 20; i++ {
		p.Samples = append(p.Samples, sampler.Sample{
			Layout: int32(i % 2), PC: int32(i % 64), Value: seed + i, Tick: 97 * i, Link: -1,
		})
	}
	return p
}

func mustBlob(t *testing.T, seed int64) []byte {
	t.Helper()
	blob, err := profilefmt.Marshal(testProfile(seed))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// envNode is one cluster member under test: a real store and Node behind a
// stable base URL whose backing process can be "killed" (connections abort
// like a dead machine's would) and later replaced by a recovered store.
type envNode struct {
	id  string
	dir string

	mu   sync.Mutex
	down bool
	st   *store.Store
	node *cluster.Node
	srv  *httptest.Server
	inj  *faultfs.Injector // when set, a tripped crash point kills the node's transport too
}

func (e *envNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.mu.Lock()
	down, node, inj := e.down, e.node, e.inj
	e.mu.Unlock()
	if down || node == nil || (inj != nil && inj.Crashed()) {
		panic(http.ErrAbortHandler) // connection dies with no response, like a lost node
	}
	node.Handler().ServeHTTP(w, r)
}

// setInjector swaps the node's crash injector (nil = healthy disk again).
func (e *envNode) setInjector(inj *faultfs.Injector) {
	e.mu.Lock()
	e.inj = inj
	e.mu.Unlock()
}

// kill simulates whole-node loss: the store is closed and every subsequent
// request aborts at the transport layer.
func (e *envNode) kill(t *testing.T) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.down = true
	if e.st != nil {
		_ = e.st.Close()
		e.st = nil
		e.node = nil
	}
}

// tryRestart reopens the node's directory (recovery runs) and brings the
// same base URL back up. A failed open (e.g. a crash injector tripping
// during recovery) leaves the node down.
func (e *envNode) tryRestart(opts store.Options, resolver cluster.DebugResolver) error {
	st, err := store.Open(e.dir, opts)
	if err != nil {
		return err
	}
	node, err := cluster.NewNode(cluster.NodeConfig{ID: e.id, Store: st, Resolver: resolver})
	if err != nil {
		st.Close()
		return err
	}
	e.mu.Lock()
	e.down = false
	e.st = st
	e.node = node
	e.mu.Unlock()
	return nil
}

func (e *envNode) restart(t *testing.T, opts store.Options, resolver cluster.DebugResolver) {
	t.Helper()
	if err := e.tryRestart(opts, resolver); err != nil {
		t.Fatalf("restart %s: %v", e.id, err)
	}
}

// lookup reads the node's local store state directly (bypassing the router).
func (e *envNode) lookup(t *testing.T, workload string, label store.Label, run string) (*store.Entry, bool) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st == nil {
		t.Fatalf("node %s is down", e.id)
	}
	return e.st.Lookup(workload, label, run)
}

type env struct {
	nodes  []*envNode
	router *cluster.Router
	reg    *obs.Registry
}

// newEnv spins up n nodes and a router over them. cfg tweaks the router
// config after the node refs are filled in.
func newEnv(t *testing.T, n int, resolver cluster.DebugResolver, cfg func(*cluster.RouterConfig)) *env {
	t.Helper()
	e := &env{reg: obs.NewRegistry()}
	refs := make([]cluster.NodeRef, n)
	for i := 0; i < n; i++ {
		en := &envNode{id: fmt.Sprintf("node-%d", i), dir: filepath.Join(t.TempDir(), "store")}
		en.srv = httptest.NewServer(en)
		t.Cleanup(en.srv.Close)
		en.restart(t, store.Options{}, resolver)
		t.Cleanup(func() {
			en.mu.Lock()
			defer en.mu.Unlock()
			if en.st != nil {
				en.st.Close()
			}
		})
		e.nodes = append(e.nodes, en)
		refs[i] = cluster.NodeRef{ID: en.id, Base: en.srv.URL}
	}
	rc := cluster.RouterConfig{Nodes: refs, Metrics: e.reg}
	if cfg != nil {
		cfg(&rc)
	}
	router, err := cluster.NewRouter(rc)
	if err != nil {
		t.Fatal(err)
	}
	e.router = router
	return e
}

// owners resolves the member nodes owning one key under the current layout.
func (e *env) owners(workload string, label store.Label, run string) []*envNode {
	layout := e.router.Layout()
	shard := cluster.ShardOf(workload, label, run, layout.Shards)
	var out []*envNode
	for _, id := range layout.Owners[shard] {
		for _, en := range e.nodes {
			if en.id == id {
				out = append(out, en)
			}
		}
	}
	return out
}

// TestQuorumWriteReplication: an acked write is on every owner; re-pushing
// the identical blob reports dup; losing one of three replicas still acks
// (W=2), losing two rejects with the retryable sentinel.
func TestQuorumWriteReplication(t *testing.T) {
	e := newEnv(t, 3, nil, nil)
	blob := mustBlob(t, 1)

	entry, dup, err := e.router.PutBlob("redis", store.LabelNormal, "0", blob)
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatal("first write reported dup")
	}
	if entry.Seq != 0 {
		t.Fatalf("cluster entry leaked a per-node Seq: %d", entry.Seq)
	}
	owners := e.owners("redis", store.LabelNormal, "0")
	if len(owners) != 3 {
		t.Fatalf("want 3 owners with 3 nodes, got %d", len(owners))
	}
	for _, en := range owners {
		got, ok := en.lookup(t, "redis", store.LabelNormal, "0")
		if !ok || got.ID != entry.ID {
			t.Fatalf("owner %s missing replicated entry (ok=%v)", en.id, ok)
		}
	}

	if _, dup, err = e.router.PutBlob("redis", store.LabelNormal, "0", blob); err != nil || !dup {
		t.Fatalf("identical re-push: dup=%v err=%v, want true/nil", dup, err)
	}

	// One replica down: the write still reaches quorum and is NOT a full dup
	// (the dead node can't confirm).
	e.nodes[1].kill(t)
	if _, _, err := e.router.PutBlob("redis", store.LabelNormal, "1", mustBlob(t, 2)); err != nil {
		t.Fatalf("write with 2/3 replicas up: %v", err)
	}

	// Two replicas down: below quorum, the typed sentinel surfaces so the
	// service can serve 503 + Retry-After.
	e.nodes[2].kill(t)
	_, _, err = e.router.PutBlob("redis", store.LabelNormal, "2", mustBlob(t, 3))
	if !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("write with 1/3 replicas up: err=%v, want ErrUnavailable", err)
	}
}

// TestInvalidBundleRejectedTyped: one replica rejecting a malformed bundle
// rejects the write with the typed validation error (not a quorum failure),
// so the service's 400 mapping applies.
func TestInvalidBundleRejected(t *testing.T) {
	e := newEnv(t, 3, nil, nil)
	_, _, err := e.router.PutBlob("redis", store.LabelNormal, "0", []byte("not a profile"))
	if !errors.Is(err, store.ErrInvalidProfile) {
		t.Fatalf("garbage blob: err=%v, want ErrInvalidProfile", err)
	}
	if errors.Is(err, store.ErrUnavailable) {
		t.Fatal("validation failure misclassified as unavailability")
	}
}

// TestDivergenceResolutionAndReadRepair: when owner copies of a key diverge,
// every read resolves the same winner (majority blob, ties to the greatest
// ID) and lagging owners are repaired in place.
func TestDivergenceResolutionAndReadRepair(t *testing.T) {
	e := newEnv(t, 3, nil, nil)
	blob := mustBlob(t, 10)
	entry, _, err := e.router.PutBlob("redis", store.LabelNormal, "0", blob)
	if err != nil {
		t.Fatal(err)
	}

	// Scribble a different (valid) blob over one owner's copy, directly in
	// its store: a divergent replica, as a replayed partial write would leave.
	owners := e.owners("redis", store.LabelNormal, "0")
	lagging := owners[len(owners)-1]
	lagging.mu.Lock()
	divergent, _, err := lagging.st.PutBlob("redis", store.LabelNormal, "0", mustBlob(t, 11))
	lagging.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if divergent.ID == entry.ID {
		t.Fatal("test setup: divergent blob hashed identically")
	}

	got, ok := e.router.Lookup("redis", store.LabelNormal, "0")
	if !ok {
		t.Fatal("lookup lost the key")
	}
	if got.ID != entry.ID {
		t.Fatalf("winner %s, want majority copy %s", got.ID, entry.ID)
	}
	// The read repaired the divergent owner back to the winner.
	repaired, ok := lagging.lookup(t, "redis", store.LabelNormal, "0")
	if !ok || repaired.ID != entry.ID {
		t.Fatalf("lagging owner not repaired: ok=%v id=%s want %s", ok, repaired.ID, entry.ID)
	}
}

// TestReadRepairBackfillsMissingReplica: an owner that was down during
// ingest receives its copies on the first read after it returns.
func TestReadRepairBackfillsMissingReplica(t *testing.T) {
	e := newEnv(t, 3, nil, nil)
	victim := e.nodes[2]
	victim.kill(t)

	type key struct{ run string }
	var acked []key
	for i := 0; i < 4; i++ {
		run := fmt.Sprint(i)
		if _, _, err := e.router.PutBlob("redis", store.LabelNormal, run, mustBlob(t, int64(20+i))); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, key{run})
	}
	victim.restart(t, store.Options{}, nil)

	// Reads must serve immediately (repair is best-effort and synchronous
	// here, so one merged read converges the cluster).
	baselines := e.router.Baselines("redis")
	if len(baselines) != len(acked) {
		t.Fatalf("baselines: got %d, want %d", len(baselines), len(acked))
	}
	for _, k := range acked {
		if _, ok := victim.lookup(t, "redis", store.LabelNormal, k.run); !ok {
			t.Fatalf("victim missing run %s after read-repair", k.run)
		}
	}
}

// TestCorpusFoldMatchesLocal: the coordinator's cross-node corpus fold is
// byte-for-byte the corpus a single store would fold from the same sketches.
func TestCorpusFoldMatchesLocal(t *testing.T) {
	resolver := service.NewBugsResolver()
	e := newEnv(t, 3, resolver, nil)
	for i := 0; i < 5; i++ {
		if _, _, err := e.router.PutBlob("b1", store.LabelNormal, fmt.Sprint(i), mustBlob(t, int64(30+i))); err != nil {
			t.Fatal(err)
		}
	}
	baselines := e.router.Baselines("b1")
	ids := make([]string, 0, len(baselines))
	for _, b := range baselines {
		ids = append(ids, b.ID)
	}

	folded, err := e.router.Corpus("b1", ids)
	if err != nil {
		t.Fatal(err)
	}

	dbg, _, err := resolver.Resolve("b1")
	if err != nil {
		t.Fatal(err)
	}
	local := analysis.NewCorpus()
	for _, id := range ids {
		sk, err := e.router.GetSketch(id)
		if err != nil {
			t.Fatal(err)
		}
		local.AddSketch(sk, dbg)
	}
	if folded.Runs != local.Runs {
		t.Fatalf("folded corpus runs %d != local %d", folded.Runs, local.Runs)
	}
	if !reflect.DeepEqual(folded.Ranks, local.Ranks) {
		t.Fatalf("folded corpus ranks diverge from local fold\nfolded: %v\nlocal:  %v", folded.Ranks, local.Ranks)
	}

	// With one replica lost, the fold still completes from the survivors.
	e.nodes[0].kill(t)
	partial, err := e.router.Corpus("b1", ids)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Runs != local.Runs || !reflect.DeepEqual(partial.Ranks, local.Ranks) {
		t.Fatal("corpus fold changed after single-replica loss")
	}
}

// TestConcurrentReadRepairVsIngest runs merged reads (each of which may
// repair) against concurrent quorum writes; under -race this is the proof
// the router's caches, hints and layout snapshots are safely shared.
func TestConcurrentReadRepairVsIngest(t *testing.T) {
	e := newEnv(t, 3, nil, nil)
	// Seed divergence so reads have repairs to do.
	for i := 0; i < 4; i++ {
		run := fmt.Sprint(i)
		if _, _, err := e.router.PutBlob("redis", store.LabelNormal, run, mustBlob(t, int64(i))); err != nil {
			t.Fatal(err)
		}
		owners := e.owners("redis", store.LabelNormal, run)
		en := owners[i%len(owners)]
		en.mu.Lock()
		_, _, err := en.st.PutBlob("redis", store.LabelNormal, run, mustBlob(t, int64(100+i)))
		en.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				run := fmt.Sprintf("w%d-%d", g, i)
				if _, _, err := e.router.PutBlob("mysql", store.LabelCandidate, run, mustBlob(t, int64(g*10+i))); err != nil {
					errs <- fmt.Errorf("ingest %s: %w", run, err)
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if got := e.router.Baselines("redis"); len(got) != 4 {
					errs <- fmt.Errorf("read saw %d baselines, want 4", len(got))
				}
				e.router.Workloads()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Everything converged: every owner of every redis run holds the winner.
	for i := 0; i < 4; i++ {
		run := fmt.Sprint(i)
		winner, ok := e.router.Lookup("redis", store.LabelNormal, run)
		if !ok {
			t.Fatalf("run %s lost", run)
		}
		for _, en := range e.owners("redis", store.LabelNormal, run) {
			if got, ok := en.lookup(t, "redis", store.LabelNormal, run); !ok || got.ID != winner.ID {
				t.Errorf("owner %s of run %s: ok=%v id=%v, want %s", en.id, run, ok, got, winner.ID)
			}
		}
	}
}

// TestHealthDegradesNotFails: replica loss degrades /healthz (reads and
// quorum writes still flow) and only a shard below write quorum flips the
// cluster to unavailable. The per-shard replica gauge tracks both.
func TestHealthDegradesNotFails(t *testing.T) {
	e := newEnv(t, 3, nil, nil)
	if status, checks := e.router.HealthDetail(); status != "ok" {
		t.Fatalf("fresh cluster: status %q, checks %v", status, checks)
	}

	e.nodes[1].kill(t)
	status, checks := e.router.HealthDetail()
	if status != "degraded" {
		t.Fatalf("one node lost: status %q, want degraded (checks %v)", status, checks)
	}

	e.nodes[2].kill(t)
	status, _ = e.router.HealthDetail()
	if status != "unavailable" {
		t.Fatalf("two nodes lost: status %q, want unavailable", status)
	}

	// The gauge is registered and carries per-shard series.
	rec := httptest.NewRecorder()
	e.reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, "vprof_replicas_healthy") {
		t.Fatal("metrics exposition missing vprof_replicas_healthy")
	}
}

// TestRebalancePopulatesNewNode: adding a member and rebalancing copies
// exactly its owned shards onto it; a second pass is an idempotent no-op.
func TestRebalancePopulatesNewNode(t *testing.T) {
	e := newEnv(t, 3, nil, nil)
	for i := 0; i < 8; i++ {
		if _, _, err := e.router.PutBlob("redis", store.LabelNormal, fmt.Sprint(i), mustBlob(t, int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	joiner := &envNode{id: "node-3", dir: filepath.Join(t.TempDir(), "store")}
	joiner.srv = httptest.NewServer(joiner)
	t.Cleanup(joiner.srv.Close)
	joiner.restart(t, store.Options{}, nil)
	t.Cleanup(func() { joiner.kill(t) })
	e.nodes = append(e.nodes, joiner)
	e.router.AddNode(cluster.NodeRef{ID: joiner.id, Base: joiner.srv.URL})

	rep, err := e.router.Rebalance(context.Background())
	if err != nil {
		t.Fatalf("rebalance: %v (%s)", err, rep)
	}
	if rep.CopiedEntries == 0 {
		t.Fatal("rebalance copied nothing onto the joiner")
	}
	// Every key the joiner now owns is present locally.
	for i := 0; i < 8; i++ {
		run := fmt.Sprint(i)
		owned := false
		for _, en := range e.owners("redis", store.LabelNormal, run) {
			if en.id == joiner.id {
				owned = true
			}
		}
		if !owned {
			continue
		}
		if _, ok := joiner.lookup(t, "redis", store.LabelNormal, run); !ok {
			t.Errorf("joiner missing owned run %s after rebalance", run)
		}
	}

	again, err := e.router.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.CopiedEntries != 0 {
		t.Fatalf("second rebalance copied %d entries, want 0 (idempotent)", again.CopiedEntries)
	}
}
