// Package sim is a deterministic fault-schedule simulator for vprof's
// continuous-profiling deployments, in the style of net/http/httptest: an
// in-process network that routes host names to handlers and injects
// per-link faults, cluster nodes on faultfs that can be killed, restarted
// and partitioned at a stable address, single-node and 3-node deployments
// driven by an agent's service.Client, one invariant checker (check.go) and
// a runner for schedule files (run.go).
package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/cluster"
	"vprof/internal/faultfs"
	"vprof/internal/obs"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/store"
)

// Fault classes the link into a host can carry.
const (
	Partition = "partition" // requests never reach the host
	Slow      = "slow"      // the host runs each request, but its reply is lost to the caller's timeout
	Dup       = "dup"       // every write to the node is delivered again after the original completed
)

var errRefused = errors.New("connection refused")

// Network is an in-process http.RoundTripper standing in for the wire: a
// request to http://<host>/... runs on the handler registered under host,
// with no socket and no clock. Traffic flows agent → front end → nodes, so
// the destination names the link a fault applies to.
type Network struct {
	mu     sync.Mutex
	hosts  map[string]func() http.Handler
	faults map[string]string // host → fault on the link into it
	// counts holds how often each fault fired, "blob-bytes" (profile bytes
	// moved by node blob reads and replicated writes), and per
	// "fresh host key id" the puts a host acked as new.
	counts map[string]int64
}

// NewNetwork returns a network with no hosts.
func NewNetwork() *Network {
	return &Network{hosts: map[string]func() http.Handler{}, faults: map[string]string{}, counts: map[string]int64{}}
}

// Client returns an HTTP client whose requests travel over the network.
func (n *Network) Client() *http.Client { return &http.Client{Transport: n} }

// handle registers host; serve returns its handler, or nil while it is down.
func (n *Network) handle(host string, serve func() http.Handler) {
	n.locked(func() { n.hosts[host] = serve })
}

// Inject puts fault on the links into hosts.
func (n *Network) Inject(fault string, hosts ...string) {
	n.locked(func() {
		for _, h := range hosts {
			n.faults[h] = fault
		}
	})
}

// Heal clears every fault.
func (n *Network) Heal() { n.locked(func() { n.faults = map[string]string{} }) }

// Count reads one counter: a fault class, or "blob-bytes".
func (n *Network) Count(name string) (v int64) {
	n.locked(func() { v = n.counts[name] })
	return v
}

func (n *Network) locked(f func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f()
}

// RoundTrip serves req on its host's handler, applying the link's fault.
func (n *Network) RoundTrip(req *http.Request) (*http.Response, error) {
	var serve func() http.Handler
	var fault string
	n.locked(func() { serve, fault = n.hosts[req.URL.Host], n.faults[req.URL.Host] })
	body := req.Body
	if body == nil {
		body = http.NoBody
	}
	defer body.Close()
	var h http.Handler
	if serve != nil && fault != Partition {
		h = serve()
	}
	if fault == Partition {
		n.locked(func() { n.counts[Partition]++ })
	}
	if h == nil {
		return nil, fmt.Errorf("sim: dial %s: %w", req.URL.Host, errRefused)
	}
	dup := fault == Dup && isPut(req)
	var raw []byte
	if dup { // both deliveries need the bytes
		var err error
		if raw, err = io.ReadAll(body); err != nil {
			return nil, err
		}
		body = io.NopCloser(bytes.NewReader(raw))
	}
	resp, err := n.deliver(h, req, body)
	if err == nil && dup {
		_, _ = n.deliver(h, req, io.NopCloser(bytes.NewReader(raw))) // the caller sees the original's reply
	}
	if err == nil && (dup || fault == Slow) {
		n.locked(func() { n.counts[fault]++ })
	}
	if err == nil && fault == Slow {
		resp, err = nil, fmt.Errorf("sim: %s reply lost: %w", req.URL.Host, os.ErrDeadlineExceeded)
	}
	return resp, err
}

func isPut(req *http.Request) bool {
	return req.Method == http.MethodPost && req.URL.Path == "/internal/v1/put"
}

// deliver runs one request on h. A handler panic aborts the connection.
func (n *Network) deliver(h http.Handler, req *http.Request, body io.ReadCloser) (resp *http.Response, err error) {
	r := req.Clone(req.Context())
	r.Body, r.RequestURI = body, req.URL.RequestURI()
	rec := httptest.NewRecorder()
	defer func() {
		if p := recover(); p != nil {
			resp, err = nil, fmt.Errorf("sim: %s aborted the connection: %v", req.URL.Host, p)
		}
	}()
	h.ServeHTTP(rec, r)
	var put struct {
		Entry *store.Entry `json:"entry"`
		Dup   bool         `json:"dup"`
	}
	n.locked(func() {
		switch {
		case isPut(req):
			n.counts["blob-bytes"] += req.ContentLength
			if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &put) == nil && put.Entry != nil && !put.Dup {
				n.counts["fresh "+req.URL.Host+" "+keyOf(put.Entry).String()+" "+put.Entry.ID]++
			}
		case strings.HasPrefix(req.URL.Path, "/internal/v1/blob/") && rec.Code == http.StatusOK:
			n.counts["blob-bytes"] += int64(rec.Body.Len())
		}
	})
	resp = rec.Result()
	resp.Request = req
	return resp, nil
}

// Node is one cluster member: a store on faultfs behind the stable address
// http://<ID>. Kill closes the store and refuses every later request;
// Start (re)opens the directory, which runs store recovery.
type Node struct {
	ID, Dir  string
	resolver cluster.DebugResolver

	mu  sync.Mutex
	inj *faultfs.Injector
	st  *store.Store
	h   http.Handler
}

// Start opens the node's store through inj and brings its address up; a
// failed open leaves the node down. With inj nil the node runs on a
// fault-free injector and skips fsync, since nothing can cut its power; a
// node on a crash injector fsyncs as in production, so its crash points
// are the real ones.
func (n *Node) Start(inj *faultfs.Injector) error {
	n.Kill()
	noSync := inj == nil
	if noSync {
		inj = faultfs.NewInjector(nil)
	}
	st, err := store.Open(n.Dir, store.Options{FS: inj, NoSync: noSync})
	if err != nil {
		return err
	}
	node, err := cluster.NewNode(cluster.NodeConfig{ID: n.ID, Store: st, Resolver: n.resolver})
	if err != nil {
		st.Close()
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inj, n.st, n.h = inj, st, node.Handler()
	return nil
}

// Kill simulates whole-node loss: the store closes and the address stops
// answering.
func (n *Node) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.st != nil {
		_ = n.st.Close()
		n.st, n.h = nil, nil
	}
}

// Store returns the node's open store, or nil while it is down (a store
// whose disk crashed is down).
func (n *Node) Store() *store.Store {
	st, _ := n.live()
	return st
}

func (n *Node) live() (*store.Store, http.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.st == nil || n.inj.Crashed() {
		return nil, nil
	}
	return n.st, n.h
}

// Ref is the node's cluster membership record.
func (n *Node) Ref() cluster.NodeRef { return cluster.NodeRef{ID: n.ID, Base: "http://" + n.ID} }

// Deployment is a running single-node or cluster deployment on one
// Network, with its current front end: the service over the single store,
// or the latest coordinator over the cluster.
type Deployment struct {
	Net     *Network
	Nodes   []*Node         // cluster members; empty on a single node
	Store   *store.Store    // the single node's store; nil for a cluster
	Router  *cluster.Router // the current coordinator's router; nil on a single node
	Backend service.Backend // what the current front end serves from
	Reg     *obs.Registry   // the current front end's metrics
	// Agent talks to the current front end. It sends each request once:
	// the schedule's retry step re-sends a push the service refused, so no
	// step waits on a backoff timer.
	Agent *service.Client

	front    string
	dir      string
	resolver service.Resolver
	fronts   int
}

func newDeployment(dir string) *Deployment {
	return &Deployment{Net: NewNetwork(), dir: dir, resolver: service.NewBugsResolver()}
}

// NewSingle starts the single-node deployment: one service over one store,
// which skips fsync like a node with no crash injector.
func NewSingle(dir string) (*Deployment, error) {
	d, reg := newDeployment(dir), obs.NewRegistry()
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{Metrics: reg, NoSync: true})
	if err != nil {
		return nil, err
	}
	d.Store = st
	return d, d.startFront(st, nil, reg, 0)
}

// NewCluster starts nodes node-0 … node-<n-1> — except those named in
// down, which stay down until started — and a coordinator over all n.
func NewCluster(dir string, n int, down ...string) (*Deployment, error) {
	d := newDeployment(dir)
	for i := 0; i < n; i++ {
		node := d.AddNode(fmt.Sprintf("node-%d", i))
		if slices.Contains(down, node.ID) {
			continue
		}
		if err := node.Start(nil); err != nil {
			d.Close()
			return nil, err
		}
	}
	if err := d.Coordinator(0); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// AddNode registers a node at its address, down until Start. It joins no
// router; callers pass n.Ref() to Router.AddNode.
func (d *Deployment) AddNode(id string) *Node {
	n := &Node{ID: id, Dir: filepath.Join(d.dir, id), resolver: d.resolver}
	d.Net.handle(id, func() http.Handler { _, h := n.live(); return h })
	d.Nodes = append(d.Nodes, n)
	return n
}

// Node returns the member named id, or nil.
func (d *Deployment) Node(id string) *Node {
	if i := slices.IndexFunc(d.Nodes, func(n *Node) bool { return n.ID == id }); i >= 0 {
		return d.Nodes[i]
	}
	return nil
}

// Coordinator starts a cold front end over every node — fresh router
// caches, memo and registry — analyzing on analysisWorkers workers (0 =
// default), and makes it the current front end.
func (d *Deployment) Coordinator(analysisWorkers int) error {
	refs := make([]cluster.NodeRef, len(d.Nodes))
	for i, n := range d.Nodes {
		refs[i] = n.Ref()
	}
	reg := obs.NewRegistry()
	router, err := cluster.NewRouter(cluster.RouterConfig{Nodes: refs, Metrics: reg, HTTP: d.Net.Client()})
	if err != nil {
		return err
	}
	return d.startFront(router, router, reg, analysisWorkers)
}

func (d *Deployment) startFront(backend service.Backend, router *cluster.Router, reg *obs.Registry, analysisWorkers int) error {
	params := analysis.DefaultParams()
	params.Workers = analysisWorkers
	srv, err := service.New(service.Config{Backend: backend, Resolver: d.resolver, Workers: 4,
		Params: &params, Top: replayTop, Metrics: reg})
	if err != nil {
		return err
	}
	if d.front != "" {
		d.Net.handle(d.front, nil) // the old front end goes away with its caches
	}
	d.fronts++
	d.front, d.Backend, d.Router, d.Reg = fmt.Sprintf("front-%d", d.fronts), backend, router, reg
	h := srv.Handler()
	d.Net.handle(d.front, func() http.Handler { return h })
	d.Agent = (&service.Client{Base: "http://" + d.front, HTTP: d.Net.Client(), Retry: service.RetryPolicy{MaxAttempts: 1}}).Instrument(reg)
	return nil
}

// stores names the open stores behind nodes, or the single node's store.
func (d *Deployment) stores(nodes []*Node) (names []string, stores []*store.Store) {
	if d.Store != nil {
		return []string{"store"}, []*store.Store{d.Store}
	}
	for _, n := range nodes {
		if st := n.Store(); st != nil {
			names, stores = append(names, n.ID), append(stores, st)
		}
	}
	return names, stores
}

// Owners resolves the members owning one key under the current layout (none
// on a single node).
func (d *Deployment) Owners(workload string, label store.Label, run string) []*Node {
	if d.Router == nil {
		return nil
	}
	layout := d.Router.Layout()
	var out []*Node
	for _, id := range layout.Owners[cluster.ShardOf(workload, label, run, layout.Shards)] {
		out = append(out, d.Node(id))
	}
	return out
}

// Close stops every node and the single store.
func (d *Deployment) Close() {
	for _, n := range d.Nodes {
		n.Kill()
	}
	if d.Store != nil {
		d.Store.Close()
	}
}

// FuzzHandler drives h with arbitrary requests — method, path, query and
// body — starting from seeds. An input fails when h answers it with a 500,
// since a malformed request is the client's fault, or when bad (nil: none)
// reports a problem after it ran. Inputs whose method net/http rejects
// before any handler runs are skipped.
func FuzzHandler(f *testing.F, h http.Handler, seeds [][4]string, bad func() error) {
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], []byte(s[3]))
	}
	f.Fuzz(func(t *testing.T, method, path, query string, body []byte) {
		req, err := http.NewRequest(method, "http://sim/", bytes.NewReader(body))
		if err != nil {
			return
		}
		req.URL = &url.URL{Path: "/" + strings.TrimPrefix(path, "/"), RawQuery: query}
		req.RequestURI = req.URL.RequestURI()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s %s: HTTP 500: %s", method, req.RequestURI, rec.Body)
		}
		if bad != nil {
			if err := bad(); err != nil {
				t.Fatalf("%s %s: %v", method, req.RequestURI, err)
			}
		}
	})
}

// CheckBodyReads sends push bodies to target (a path and query on h) over
// real connections, so net/http frames them as a client would: a body
// declared over any limit gets 413, a Content-Length above the bytes sent
// gets 400, and valid sent chunked, with no Content-Length, gets 200.
func CheckBodyReads(t *testing.T, h http.Handler, target string, valid []byte) {
	t.Helper()
	hs := httptest.NewServer(h)
	defer hs.Close()
	for _, c := range []struct {
		name, header string
		body         []byte
		want         int
	}{
		{"over limit", "Content-Length: 1099511627776", valid, http.StatusRequestEntityTooLarge},
		{"short body", fmt.Sprintf("Content-Length: %d", len(valid)+100), valid, http.StatusBadRequest},
		{"chunked", "Transfer-Encoding: chunked", chunked(valid), http.StatusOK},
	} {
		conn, err := net.Dial("tcp", hs.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: sim\r\nContent-Type: application/octet-stream\r\n%s\r\n\r\n", target, c.header)
		_, err = conn.Write(c.body)
		if err == nil {
			err = conn.(*net.TCPConn).CloseWrite()
		}
		var resp *http.Response
		if err == nil {
			resp, err = http.ReadResponse(bufio.NewReader(conn), nil)
		}
		if err != nil {
			conn.Close()
			t.Fatalf("%s: %v", c.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		conn.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: HTTP %d (%s), want %d", c.name, resp.StatusCode, bytes.TrimSpace(body), c.want)
		}
	}
}

// chunked frames b as one chunk of an HTTP/1.1 chunked body.
func chunked(b []byte) []byte {
	return append(append(fmt.Appendf(nil, "%x\r\n", len(b)), b...), "\r\n0\r\n\r\n"...)
}

// SyntheticBlob encodes a small, valid profile whose content is a function
// of seed: cheap enough for crash schedules under the race detector.
func SyntheticBlob(seed int64) []byte {
	p := &sampler.Profile{
		Pid: int(seed%7) + 1, File: "prog.vp", Interval: 97, TotalTicks: 10000 + seed,
		NumAlarms: 100 + seed%13, Hist: make([]int64, 64),
		Layout: []sampler.LayoutEntry{{Func: "scan", Name: "n"}, {Func: "#global", Name: "buf", IsPointer: true}},
	}
	for i := range p.Hist {
		p.Hist[i] = (seed*31 + int64(i)*7) % 5
	}
	for i := int64(0); i < 20; i++ {
		p.Samples = append(p.Samples, sampler.Sample{Layout: int32(i % 2), PC: int32(i % 64), Value: seed + i, Tick: 97 * i, Link: -1})
	}
	blob, err := profilefmt.Marshal(p)
	if err != nil {
		panic(err) // the profile is valid by construction
	}
	return blob
}
