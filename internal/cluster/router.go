package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"vprof/internal/analysis"
	"vprof/internal/obs"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
	"vprof/internal/store"
)

// NodeRef names one cluster member and where to reach it.
type NodeRef struct {
	ID   string `json:"id"`
	Base string `json:"base"` // http://host:port, no trailing slash
}

// RouterConfig wires the coordinator.
type RouterConfig struct {
	Nodes []NodeRef
	// Replicas is the desired copy count per shard (default 3, clamped to
	// the live node count).
	Replicas int
	// WriteQuorum is the ack count an ingest needs before it is
	// acknowledged to the client (default: majority of effective replicas).
	WriteQuorum int
	// Shards is the keyspace partition count (default DefaultShards); every
	// router and node in a cluster must agree on it.
	Shards int
	// BaselineCap bounds the merged rolling baseline corpus per workload
	// (default 16, mirroring store.Options).
	BaselineCap int
	// HTTP is the transport to the nodes (default: 5s timeout client, so a
	// hung node degrades a request instead of wedging it).
	HTTP    *http.Client
	Metrics *obs.Registry
	Logger  *slog.Logger
}

// Router implements the service Backend over a set of cluster nodes:
// quorum-replicated writes, merged reads with read-repair, and
// coordinator-side corpus folding for cross-node sketch diagnoses.
type Router struct {
	shards      int
	desired     int // configured replica target
	quorumCfg   int // 0 = majority of effective replicas
	baselineCap int

	mu     sync.RWMutex
	nodes  map[string]*nodeClient
	layout Layout

	http *http.Client
	log  *slog.Logger

	decoded  *store.Cache[*sampler.Profile]
	sketches *store.Cache[*sketch.Profile]
	hints    *store.Cache[string] // blob id → node id that served or acked it last

	m routerMetrics
}

// cacheCap bounds each of the coordinator's caches: decoded profiles,
// sketches and fetch hints.
const cacheCap = 64

type routerMetrics struct {
	replicasHealthy *obs.GaugeVec
	readRepairs     *obs.Counter
	repairFailures  *obs.Counter
	quorumFailures  *obs.Counter
	nodeErrors      *obs.CounterVec
	ingestBytes     *obs.Counter
	rebalanceCopies *obs.Counter
}

// NewRouter validates the config and computes the initial layout.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: router needs at least one node")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.BaselineCap <= 0 {
		cfg.BaselineCap = 16
	}
	if cfg.HTTP == nil {
		// Generous by default: a quorum write blocks on replica fsyncs, and
		// a put that times out client-side still lands server-side, turning
		// a slow disk into spurious divergence. Unreachable nodes fail fast
		// on connect regardless of this ceiling.
		cfg.HTTP = &http.Client{Timeout: 30 * time.Second}
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Nop()
	}
	r := &Router{
		shards:      cfg.Shards,
		desired:     cfg.Replicas,
		quorumCfg:   cfg.WriteQuorum,
		baselineCap: cfg.BaselineCap,
		nodes:       map[string]*nodeClient{},
		http:        cfg.HTTP,
		log:         log,
		decoded:     store.NewCache[*sampler.Profile](cacheCap),
		sketches:    store.NewCache[*sketch.Profile](cacheCap),
		hints:       store.NewCache[string](cacheCap),
		m: routerMetrics{
			replicasHealthy: cfg.Metrics.GaugeVec("vprof_replicas_healthy",
				"Reachable replicas per shard, refreshed on every health probe.", "shard"),
			readRepairs: cfg.Metrics.Counter("vprof_cluster_read_repairs_total",
				"Divergent or missing replica copies repaired during reads."),
			repairFailures: cfg.Metrics.Counter("vprof_cluster_read_repair_failures_total",
				"Read-repair copy attempts that failed (reads still served)."),
			quorumFailures: cfg.Metrics.Counter("vprof_cluster_quorum_failures_total",
				"Ingest writes rejected for missing the write quorum."),
			nodeErrors: cfg.Metrics.CounterVec("vprof_cluster_node_errors_total",
				"Internal-API failures per node.", "node"),
			ingestBytes: cfg.Metrics.Counter("vprof_cluster_ingest_bytes_total",
				"Bytes accepted by quorum-acked cluster ingests."),
			rebalanceCopies: cfg.Metrics.Counter("vprof_cluster_rebalance_copies_total",
				"Entries copied onto owners during rebalance passes."),
		},
	}
	for _, ref := range cfg.Nodes {
		if ref.ID == "" || ref.Base == "" {
			return nil, fmt.Errorf("cluster: node ref needs id and base, got %+v", ref)
		}
		if _, dup := r.nodes[ref.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", ref.ID)
		}
		r.nodes[ref.ID] = &nodeClient{ref: ref, http: cfg.HTTP}
	}
	r.recomputeLayoutLocked()
	return r, nil
}

// recomputeLayoutLocked re-evaluates placement for the current member set.
// Caller holds r.mu (or has exclusive access during construction).
func (r *Router) recomputeLayoutLocked() {
	ids := make([]string, 0, len(r.nodes))
	for id := range r.nodes {
		ids = append(ids, id)
	}
	r.layout = ComputeLayout(ids, r.shards, r.desired)
}

// AddNode joins a member and recomputes placement. The caller runs
// Rebalance afterwards to populate the newcomer.
func (r *Router) AddNode(ref NodeRef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nodes[ref.ID] = &nodeClient{ref: ref, http: r.http}
	r.recomputeLayoutLocked()
}

// RemoveNode drops a member (leave or crash) and recomputes placement.
func (r *Router) RemoveNode(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.nodes, id)
	r.recomputeLayoutLocked()
}

// Nodes lists the current members, sorted by ID.
func (r *Router) Nodes() []NodeRef {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]NodeRef, 0, len(r.nodes))
	for _, nc := range r.nodes {
		out = append(out, nc.ref)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Layout returns a snapshot of the current placement.
func (r *Router) Layout() Layout {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.layout
}

// quorum returns the effective write quorum for the current layout.
func (r *Router) quorum(l Layout) int {
	if r.quorumCfg > 0 {
		if r.quorumCfg > l.Replicas {
			return l.Replicas
		}
		return r.quorumCfg
	}
	return l.Replicas/2 + 1
}

func (r *Router) snapshot() (Layout, map[string]*nodeClient) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	nodes := make(map[string]*nodeClient, len(r.nodes))
	for id, nc := range r.nodes {
		nodes[id] = nc
	}
	return r.layout, nodes
}

func (r *Router) nodeErr(id string, err error) {
	r.m.nodeErrors.With(id).Inc()
	r.log.Debug("cluster node error", "node", id, "err", err)
}

// ---- Backend: writes -------------------------------------------------------

// PutBlob replicates one profile to the shard's owners and acknowledges once
// the write quorum holds it. Dup is reported only when every acking replica
// already had the identical entry. Validation is deterministic, so a single
// replica rejecting the bundle rejects the write. Fewer than quorum acks
// wrap store.ErrUnavailable (the service maps it to 503 + Retry-After).
// PutBlob returns only once the transport has closed every replica's
// request body, so the caller may recycle blob as soon as it returns.
func (r *Router) PutBlob(workload string, label store.Label, run string, blob []byte) (*store.Entry, bool, error) {
	layout, nodes := r.snapshot()
	shard := ShardOf(workload, label, run, r.shards)
	owners := layout.Owners[shard]
	if len(owners) == 0 {
		return nil, false, fmt.Errorf("cluster: no owners for shard %d: %w", shard, store.ErrUnavailable)
	}

	type ack struct {
		node  string
		entry *store.Entry
		dup   bool
		err   error
	}
	acks := make([]ack, len(owners))
	// held counts each put until it returns and each request body over
	// blob until the transport closes it.
	var held sync.WaitGroup
	for i, id := range owners {
		nc, ok := nodes[id]
		if !ok {
			acks[i] = ack{node: id, err: fmt.Errorf("cluster: owner %s not a member", id)}
			continue
		}
		held.Add(1)
		go func(i int, id string, nc *nodeClient) {
			defer held.Done()
			entry, dup, err := nc.put(workload, string(label), run, blob, &held)
			acks[i] = ack{node: id, entry: entry, dup: dup, err: err}
		}(i, id, nc)
	}
	held.Wait()

	var (
		got      int
		dupAll   = true
		winner   *store.Entry
		firstErr error
	)
	for _, a := range acks {
		if a.err != nil {
			if errors.Is(a.err, store.ErrInvalidProfile) {
				// Deterministic validation: one replica rejecting the bundle
				// means all would; surface the typed client error.
				return nil, false, a.err
			}
			r.nodeErr(a.node, a.err)
			if firstErr == nil {
				firstErr = a.err
			}
			continue
		}
		got++
		dupAll = dupAll && a.dup
		if winner == nil {
			winner = a.entry
		}
	}
	q := r.quorum(layout)
	if got < q {
		r.m.quorumFailures.Inc()
		return nil, false, fmt.Errorf("cluster: write quorum not reached for %s/%s/%s (%d/%d acks, first error: %v): %w",
			workload, label, run, got, q, firstErr, store.ErrUnavailable)
	}
	r.m.ingestBytes.Add(float64(len(blob)))
	for _, a := range acks {
		if a.err == nil {
			r.hints.Put(winner.ID, a.node)
			break
		}
	}
	cp := *winner
	cp.Seq = 0 // Seq is a per-node manifest position; meaningless cluster-wide
	return &cp, dupAll, nil
}

// ---- Backend: blob + sketch reads ------------------------------------------

// fetchOrder returns node ids to try for a blob id: the last member that
// served or acked it first, then every member in sorted order.
func (r *Router) fetchOrder(id string, nodes map[string]*nodeClient) []string {
	ids := make([]string, 0, len(nodes))
	for nid := range nodes {
		ids = append(ids, nid)
	}
	sort.Strings(ids)
	hint, ok := r.hints.Get(id)
	if !ok || nodes[hint] == nil { // no hint, or the hinted node has left
		return ids
	}
	ordered := []string{hint}
	for _, nid := range ids {
		if nid != hint {
			ordered = append(ordered, nid)
		}
	}
	return ordered
}

// fetch is the coordinator's one read path for an artifact of a stored
// blob: the cache, else each member in fetchOrder until one serves bytes
// that decode. A member that cannot serve the id (it does not hold it, or
// is down) is skipped uncounted; one that serves corrupt or undecodable
// bytes counts a node error. The serving member becomes id's hint.
func fetch[V any](r *Router, cache *store.Cache[V], id string,
	read func(*nodeClient, string) ([]byte, error), decode func([]byte) (V, error)) (V, error) {
	if v, ok := cache.Get(id); ok {
		return v, nil
	}
	_, nodes := r.snapshot()
	lastErr := errors.New("cluster: no nodes")
	for _, nid := range r.fetchOrder(id, nodes) {
		raw, err := read(nodes[nid], id)
		if err != nil {
			if errors.Is(err, errCorrupt) {
				r.nodeErr(nid, err)
			}
			lastErr = err
			continue
		}
		v, err := decode(raw)
		obs.PutBuffer(raw) // decoders copy what they keep
		if err != nil {
			lastErr = fmt.Errorf("cluster: node %s served undecodable bytes for %s: %w", nid, id, err)
			r.nodeErr(nid, lastErr)
			continue
		}
		r.hints.Put(id, nid)
		cache.Put(id, v)
		return v, nil
	}
	var zero V
	return zero, fmt.Errorf("cluster: %s unavailable: %w", id, lastErr)
}

// Get returns the decoded profile stored under id, via the coordinator's
// decode cache. Sketch-mode diagnoses never call it, which is what keeps the
// decode-cache counters flat.
func (r *Router) Get(id string) (*sampler.Profile, error) {
	return fetch(r, r.decoded, id, (*nodeClient).verifiedBlob, profilefmt.Unmarshal)
}

// GetSketch returns the per-variable sketch of a stored blob, fetched from
// whichever replica holds it and cached at the coordinator. A sketch folded
// from another blob is rejected, as store.GetSketch rejects it.
func (r *Router) GetSketch(id string) (*sketch.Profile, error) {
	return fetch(r, r.sketches, id, (*nodeClient).sketch, func(raw []byte) (*sketch.Profile, error) {
		sk, err := profilefmt.UnmarshalSketch(raw)
		if err == nil && sk.BlobID != id {
			err = fmt.Errorf("sketch of blob %s", sk.BlobID)
		}
		return sk, err
	})
}

// CacheStats reports the coordinator's decode-cache counters.
func (r *Router) CacheStats() store.CacheStats { return r.decoded.Stats() }

// SketchStats reports the coordinator's sketch-cache counters. Rebuilds
// happen node-side, so only hit/miss/indexed are meaningful here.
func (r *Router) SketchStats() store.SketchStats {
	c := r.sketches.Stats()
	return store.SketchStats{Hits: c.Hits, Misses: c.Misses, Indexed: c.Entries}
}

// ---- Backend: merged entry reads + read-repair -----------------------------

// entryCopies is one (workload,label,run) key's copies across the cluster.
type entryCopies struct {
	byNode map[string]*store.Entry
}

// resolveWinner picks the authoritative copy of a divergent key: the blob ID
// held by the most nodes, ties broken toward the lexicographically greatest
// ID so every router converges on the same answer with no coordination.
func resolveWinner(byNode map[string]*store.Entry) *store.Entry {
	counts := map[string]int{}
	for _, e := range byNode {
		counts[e.ID]++
	}
	bestID, bestN := "", 0
	for id, n := range counts {
		if n > bestN || (n == bestN && id > bestID) {
			bestID, bestN = id, n
		}
	}
	for _, e := range byNode {
		if e.ID == bestID {
			cp := *e
			cp.Seq = 0
			return &cp
		}
	}
	return nil
}

// sweep queries every member for its entries of one workload ("" = all)
// and reports which members answered. Unreachable nodes are skipped —
// availability over completeness; repair and health reporting cover the
// gap.
func (r *Router) sweep(workload string) (map[string]*entryCopies, map[string]bool) {
	_, nodes := r.snapshot()
	type result struct {
		node    string
		entries []*store.Entry
		err     error
	}
	results := make(chan result, len(nodes))
	for id, nc := range nodes {
		go func(id string, nc *nodeClient) {
			entries, err := nc.entries(workload)
			results <- result{node: id, entries: entries, err: err}
		}(id, nc)
	}
	keys := map[string]*entryCopies{}
	answered := map[string]bool{}
	for range nodes {
		res := <-results
		if res.err != nil {
			r.nodeErr(res.node, res.err)
			continue
		}
		answered[res.node] = true
		for _, e := range res.entries {
			k := e.Workload + "\x00" + string(e.Label) + "\x00" + e.Run
			c := keys[k]
			if c == nil {
				c = &entryCopies{byNode: map[string]*store.Entry{}}
				keys[k] = c
			}
			c.byNode[res.node] = e
		}
	}
	return keys, answered
}

// laggingOwners lists the owners of winner's shard whose copy is missing
// or differs from the winner.
func laggingOwners(owners []string, winner *store.Entry, byNode map[string]*store.Entry) []string {
	var lagging []string
	for _, owner := range owners {
		if e, ok := byNode[owner]; !ok || e.ID != winner.ID {
			lagging = append(lagging, owner)
		}
	}
	return lagging
}

// copyWinner puts the winning copy of a key onto every lagging owner,
// fetching its blob once from a node that holds it. It returns the owners
// it updated, the blob size, and one error per failure: a failed fetch
// fails the whole key once, a failed put fails one owner.
func (r *Router) copyWinner(winner *store.Entry, byNode map[string]*store.Entry, lagging []string, nodes map[string]*nodeClient) (copied []string, size int, errs []error) {
	blob, err := r.blobFromHolders(winner.ID, byNode, nodes)
	if err != nil {
		return nil, 0, []error{fmt.Errorf("fetch %s: %w", winner.ID, err)}
	}
	var held sync.WaitGroup
	defer func() {
		held.Wait()
		obs.PutBuffer(blob)
	}()
	for _, owner := range lagging {
		nc, ok := nodes[owner]
		if !ok {
			continue
		}
		if _, _, err := nc.put(winner.Workload, string(winner.Label), winner.Run, blob, &held); err != nil {
			r.nodeErr(owner, err)
			errs = append(errs, fmt.Errorf("copy %s/%s/%s to %s: %w", winner.Workload, winner.Label, winner.Run, owner, err))
			continue
		}
		copied = append(copied, owner)
	}
	return copied, len(blob), errs
}

// repairKey pushes the winning copy of a key to every owner that answered
// the sweep and lacks it. An owner that did not answer is down or cut off,
// so a put to it would fail too; its copy waits for a read that reaches it
// (or for Rebalance). Repair is strictly best-effort: failures are counted
// and logged, never surfaced to the read that triggered them.
func (r *Router) repairKey(winner *store.Entry, byNode map[string]*store.Entry, answered map[string]bool) {
	layout, nodes := r.snapshot()
	shard := ShardOf(winner.Workload, winner.Label, winner.Run, r.shards)
	var reachable []string
	for _, owner := range layout.Owners[shard] {
		if answered[owner] {
			reachable = append(reachable, owner)
		}
	}
	lagging := laggingOwners(reachable, winner, byNode)
	if len(lagging) == 0 {
		return
	}
	copied, _, errs := r.copyWinner(winner, byNode, lagging, nodes)
	for _, err := range errs {
		r.m.repairFailures.Inc()
		r.log.Warn("read-repair failed", "err", err)
	}
	for _, owner := range copied {
		r.m.readRepairs.Inc()
		r.log.Info("read-repair", "workload", winner.Workload, "label", winner.Label,
			"run", winner.Run, "node", owner)
	}
}

// blobFromHolders fetches the winner's bytes from a node known to hold it.
func (r *Router) blobFromHolders(id string, byNode map[string]*store.Entry, nodes map[string]*nodeClient) ([]byte, error) {
	holders := make([]string, 0, len(byNode))
	for nid, e := range byNode {
		if e.ID == id {
			holders = append(holders, nid)
		}
	}
	sort.Strings(holders)
	lastErr := fmt.Errorf("cluster: no reachable holder for %s", id)
	for _, nid := range holders {
		if nc, ok := nodes[nid]; ok {
			blob, err := nc.verifiedBlob(id)
			if err == nil {
				return blob, nil
			}
			lastErr = err
		}
	}
	return nil, lastErr
}

// mergedEntries resolves the cluster-wide view of one workload's entries,
// repairing divergent owner copies along the way.
func (r *Router) mergedEntries(workload string) []*store.Entry {
	keys, answered := r.sweep(workload)
	var out []*store.Entry
	for _, c := range keys {
		winner := resolveWinner(c.byNode)
		if winner == nil {
			continue
		}
		r.repairKey(winner, c.byNode, answered)
		out = append(out, winner)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return runLess(out[i].Run, out[j].Run)
	})
	return out
}

// runLess mirrors the store's natural run ordering (shorter first, then
// lexicographic) so cluster reads return baselines in the same order a
// single-node store would.
func runLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// Lookup resolves one (workload, label, run) key cluster-wide.
func (r *Router) Lookup(workload string, label store.Label, run string) (*store.Entry, bool) {
	for _, e := range r.mergedEntries(workload) {
		if e.Label == label && e.Run == run {
			return e, true
		}
	}
	return nil, false
}

// Baselines returns the merged rolling baseline corpus in run order.
// Cluster-wide there is no total manifest order, so when the corpus
// overflows the cap the highest run IDs are kept (run IDs grow
// monotonically under the continuous-profiling agents).
func (r *Router) Baselines(workload string) []*store.Entry {
	var out []*store.Entry
	for _, e := range r.mergedEntries(workload) {
		if e.Label == store.LabelNormal {
			out = append(out, e)
		}
	}
	if len(out) > r.baselineCap {
		out = out[len(out)-r.baselineCap:]
	}
	return out
}

// Candidates returns the merged candidate entries in run order.
func (r *Router) Candidates(workload string) []*store.Entry {
	var out []*store.Entry
	for _, e := range r.mergedEntries(workload) {
		if e.Label == store.LabelCandidate {
			out = append(out, e)
		}
	}
	return out
}

// Workloads lists every workload any member holds, with merged counts,
// from one merged read of all entries.
func (r *Router) Workloads() []store.WorkloadInfo {
	out := []store.WorkloadInfo{}
	for _, e := range r.mergedEntries("") { // sorted by workload first
		if len(out) == 0 || out[len(out)-1].Workload != e.Workload {
			out = append(out, store.WorkloadInfo{Workload: e.Workload})
		}
		info := &out[len(out)-1]
		switch e.Label {
		case store.LabelNormal:
			info.Normals++
		case store.LabelCandidate:
			info.Candidates++
		}
		info.Baselines = min(info.Normals, r.baselineCap)
	}
	return out
}

func splitKey(k string) (workload, label, run string) {
	parts := bytes.SplitN([]byte(k), []byte{0}, 3)
	if len(parts) != 3 {
		return k, "", ""
	}
	return string(parts[0]), string(parts[1]), string(parts[2])
}

// ---- Backend: cross-node corpus folding ------------------------------------

// Corpus folds the baseline sketch corpus for a workload across the cluster:
// each member folds the subset of ids it holds locally and returns a partial
// corpus; the coordinator merges them (Corpus.Merge is associative and
// commutative, so the result is byte-for-byte the single-node fold). IDs no
// member can fold wrap store.ErrUnavailable and the caller falls back to
// fetching raw sketches.
func (r *Router) Corpus(workload string, ids []string) (*analysis.Corpus, error) {
	_, nodes := r.snapshot()
	order := make([]string, 0, len(nodes))
	for id := range nodes {
		order = append(order, id)
	}
	sort.Strings(order)

	corpus := analysis.NewCorpus()
	remaining := ids
	for _, nid := range order {
		if len(remaining) == 0 {
			break
		}
		resp, err := nodes[nid].corpus(workload, remaining)
		if err != nil {
			r.nodeErr(nid, err)
			continue
		}
		folded := len(remaining) - len(resp.Missing)
		if folded > 0 {
			corpus.Merge(&analysis.Corpus{Runs: resp.Runs, Ranks: resp.Ranks})
		}
		remaining = resp.Missing
	}
	if len(remaining) > 0 {
		return nil, fmt.Errorf("cluster: %d corpus sketch(es) not foldable on any member: %w",
			len(remaining), store.ErrUnavailable)
	}
	return corpus, nil
}

// ---- Backend: health + lifecycle -------------------------------------------

// HealthDetail probes every member and classifies the cluster:
// "ok" when all replicas of all shards are reachable and clean,
// "degraded" when replicas are lost or recovered dirty but every shard still
// meets its write quorum, "unavailable" once any shard drops below quorum.
// It refreshes the vprof_replicas_healthy gauge per shard.
func (r *Router) HealthDetail() (string, map[string]string) {
	layout, nodes := r.snapshot()
	checks := map[string]string{}
	healthy := map[string]bool{}
	degraded := false
	for id, nc := range nodes {
		h, err := nc.health()
		switch {
		case err != nil:
			checks["node_"+id] = "unreachable: " + err.Error()
			degraded = true
		case h.Status != "ok":
			checks["node_"+id] = h.Status + ": " + h.Error
			degraded = true
		case h.Recovered:
			checks["node_"+id] = "ok (recovered from dirty shutdown)"
			healthy[id] = true
			degraded = true
		default:
			checks["node_"+id] = "ok"
			healthy[id] = true
		}
	}
	q := r.quorum(layout)
	worst, worstShard := len(nodes)+1, -1
	for s := 0; s < layout.Shards; s++ {
		up := 0
		for _, owner := range layout.Owners[s] {
			if healthy[owner] {
				up++
			}
		}
		r.m.replicasHealthy.With(shardLabel(s)).Set(float64(up))
		if up < worst {
			worst, worstShard = up, s
		}
	}
	if worstShard >= 0 && worst < layout.Replicas {
		checks["replicas"] = fmt.Sprintf("shard %d has %d/%d replicas", worstShard, worst, layout.Replicas)
		degraded = true
	}
	if worstShard >= 0 && worst < q {
		checks["replicas"] = fmt.Sprintf("shard %d below write quorum (%d/%d)", worstShard, worst, q)
		return "unavailable", checks
	}
	if degraded {
		return "degraded", checks
	}
	return "ok", checks
}

// Flush asks every reachable member to fsync; unreachable members are
// skipped (they have nothing buffered for us to lose).
func (r *Router) Flush() error {
	_, nodes := r.snapshot()
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var firstErr error
	for _, id := range ids {
		if err := nodes[id].flush(); err != nil {
			if isUnreachable(err) {
				continue
			}
			r.nodeErr(id, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: flush %s: %w", id, err)
			}
		}
	}
	return firstErr
}

// isUnreachable reports whether an internal-API error is a transport
// failure (node down) rather than a served error.
func isUnreachable(err error) bool {
	var se *statusError
	return !errors.As(err, &se)
}

// ---- node client -----------------------------------------------------------

// statusError is an error the node actually served (vs a transport failure).
type statusError struct {
	status int
	code   string
	msg    string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("node returned %d (%s): %s", e.status, e.code, e.msg)
}

type nodeClient struct {
	ref  NodeRef
	http *http.Client
}

func (nc *nodeClient) url(path string) string { return nc.ref.Base + path }

func (nc *nodeClient) decodeError(resp *http.Response) error {
	var ne nodeError
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(body, &ne); err != nil || ne.Error == "" {
		ne.Error = string(body)
	}
	return &statusError{status: resp.StatusCode, code: ne.Code, msg: ne.Error}
}

func (nc *nodeClient) getJSON(path string, out any) error {
	resp, err := nc.http.Get(nc.url(path))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nc.decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (nc *nodeClient) getRaw(path string) ([]byte, error) {
	resp, err := nc.http.Get(nc.url(path))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nc.decodeError(resp)
	}
	return obs.ReadBody(resp.Body, resp.ContentLength, maxPutBytes)
}

// put writes blob to the node. Each request body it opens over blob counts
// on held until the transport closes it, which net/http may do on its own
// goroutine after put returns: blob must not change before held.Wait
// returns.
func (nc *nodeClient) put(workload, label, run string, blob []byte, held *sync.WaitGroup) (*store.Entry, bool, error) {
	q := url.Values{"workload": {workload}, "label": {label}, "run": {run}}
	req, err := http.NewRequest(http.MethodPost, nc.url("/internal/v1/put?"+q.Encode()), nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.ContentLength = int64(len(blob))
	req.Body = newHeldBody(blob, held)
	req.GetBody = func() (io.ReadCloser, error) { return newHeldBody(blob, held), nil }
	resp, err := nc.http.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := nc.decodeError(resp)
		var se *statusError
		if errors.As(err, &se) && se.code == "invalid" {
			// Re-wrap so the service's existing 400 mapping applies.
			return nil, false, fmt.Errorf("cluster: node %s: %s: %w", nc.ref.ID, se.msg, store.ErrInvalidProfile)
		}
		return nil, false, err
	}
	var pr putResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, false, err
	}
	return pr.Entry, pr.Dup, nil
}

// heldBody is a request body over a blob its owner recycles once held
// says every such body is closed. GetBody opens more only while put runs:
// PutBlob's held then counts the put itself, and copyWinner waits only
// after its puts return.
type heldBody struct {
	*bytes.Reader
	held *sync.WaitGroup
	once sync.Once
}

func newHeldBody(blob []byte, held *sync.WaitGroup) *heldBody {
	held.Add(1)
	return &heldBody{Reader: bytes.NewReader(blob), held: held}
}

// Close tells held the transport is done with the blob; net/http may
// close a body more than once.
func (b *heldBody) Close() error {
	b.once.Do(b.held.Done)
	return nil
}

// errCorrupt marks a blob whose bytes do not hash to the id they were
// served under.
var errCorrupt = errors.New("corrupt blob")

// verifiedBlob fetches a blob and checks its bytes against the content
// hash they are stored under.
func (nc *nodeClient) verifiedBlob(id string) ([]byte, error) {
	blob, err := nc.getRaw("/internal/v1/blob/" + url.PathEscape(id))
	if err != nil {
		return nil, err
	}
	if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != id {
		obs.PutBuffer(blob)
		return nil, fmt.Errorf("cluster: node %s served a %w for %s", nc.ref.ID, errCorrupt, id)
	}
	return blob, nil
}

func (nc *nodeClient) sketch(id string) ([]byte, error) {
	return nc.getRaw("/internal/v1/sketch/" + url.PathEscape(id))
}

func (nc *nodeClient) entries(workload string) ([]*store.Entry, error) {
	path := "/internal/v1/entries"
	if workload != "" {
		path += "?workload=" + url.QueryEscape(workload)
	}
	var out []*store.Entry
	if err := nc.getJSON(path, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func (nc *nodeClient) corpus(workload string, ids []string) (*corpusResponse, error) {
	body, err := json.Marshal(corpusRequest{Workload: workload, IDs: ids})
	if err != nil {
		return nil, err
	}
	resp, err := nc.http.Post(nc.url("/internal/v1/corpus"), "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nc.decodeError(resp)
	}
	var out corpusResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (nc *nodeClient) health() (*nodeHealth, error) {
	resp, err := nc.http.Get(nc.url("/internal/v1/health"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h nodeHealth
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return nil, nc.decodeError(resp)
	}
	return &h, nil
}

func (nc *nodeClient) flush() error {
	resp, err := nc.http.Post(nc.url("/internal/v1/flush"), "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return nc.decodeError(resp)
	}
	return nil
}
