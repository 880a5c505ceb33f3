package cluster_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"vprof/internal/cluster"
	"vprof/internal/obs"
	"vprof/internal/profilefmt"
	"vprof/internal/sim"
	"vprof/internal/store"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// coldRouter starts a coordinator with empty caches and hints over d's nodes
// plus extra, sending every node request through rt.
func coldRouter(t *testing.T, d *sim.Deployment, reg *obs.Registry, rt http.RoundTripper, extra ...cluster.NodeRef) *cluster.Router {
	t.Helper()
	refs := extra
	for _, n := range d.Nodes {
		refs = append(refs, n.Ref())
	}
	r, err := cluster.NewRouter(cluster.RouterConfig{Nodes: refs, Metrics: reg, HTTP: &http.Client{Transport: rt}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestWorkloadsSweepsOnce: listing workloads reads every member's entries
// once, however many workloads the cluster holds.
func TestWorkloadsSweepsOnce(t *testing.T) {
	d := newCluster(t, 3)
	for i, wl := range []string{"redis", "mysql", "nginx"} {
		if _, _, err := d.Router.PutBlob(wl, store.LabelNormal, "0", sim.SyntheticBlob(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := d.Router.PutBlob("redis", store.LabelCandidate, "0", sim.SyntheticBlob(9)); err != nil {
		t.Fatal(err)
	}
	var sweeps atomic.Int64
	r := coldRouter(t, d, nil, roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == "/internal/v1/entries" {
			sweeps.Add(1)
		}
		return d.Net.RoundTrip(req)
	}))
	got := fmt.Sprint(r.Workloads())
	if want := "[{mysql 1 0 1} {nginx 1 0 1} {redis 1 1 1}]"; got != want {
		t.Errorf("Workloads() = %s, want %s", got, want)
	}
	if n := sweeps.Load(); n != 3 {
		t.Errorf("one Workloads call made %d entries requests, want 3 (one per node)", n)
	}
}

// TestFetchSkipsBadReplicaBytes: a member that serves bytes which do not
// verify or decode as the requested artifact counts a node error, and the
// read moves on to the next replica. Members that merely lack the id count
// nothing.
func TestFetchSkipsBadReplicaBytes(t *testing.T) {
	d := newCluster(t, 2)
	want, _, err := d.Router.PutBlob("redis", store.LabelNormal, "0", sim.SyntheticBlob(1))
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := d.Router.PutBlob("redis", store.LabelNormal, "1", sim.SyntheticBlob(2))
	if err != nil {
		t.Fatal(err)
	}
	otherSketch, err := d.Router.GetSketch(other.ID)
	if err != nil {
		t.Fatal(err)
	}
	otherFrame, err := profilefmt.MarshalSketch(otherSketch)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("not a profile")
	sum := sha256.Sum256(garbage)
	garbageID := hex.EncodeToString(sum[:])

	getSketch := func(id string) func(*cluster.Router) error {
		return func(r *cluster.Router) error {
			sk, err := r.GetSketch(id)
			if err == nil && sk.BlobID != id {
				err = fmt.Errorf("served the sketch of blob %s", sk.BlobID)
			}
			return err
		}
	}
	get := func(id string) func(*cluster.Router) error {
		return func(r *cluster.Router) error { _, err := r.Get(id); return err }
	}
	for _, tc := range []struct {
		name   string
		serve  []byte
		read   func(*cluster.Router) error
		served bool // a healthy replica holds the id
	}{
		{"sketch of another blob", otherFrame, getSketch(want.ID), true},
		{"garbage sketch", garbage, getSketch(want.ID), true},
		{"corrupt blob", garbage, get(want.ID), true},
		{"undecodable blob under its own hash", garbage, get(garbageID), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The stub sorts first, so a cold router asks it before node-0.
			stub := cluster.NodeRef{ID: "a-stub", Base: "http://a-stub"}
			reg := obs.NewRegistry()
			r := coldRouter(t, d, reg, roundTripFunc(func(req *http.Request) (*http.Response, error) {
				if req.URL.Host != "a-stub" {
					return d.Net.RoundTrip(req)
				}
				rec := httptest.NewRecorder()
				rec.Write(tc.serve)
				return rec.Result(), nil
			}), stub)
			err := tc.read(r)
			if tc.served && err != nil {
				t.Fatalf("read not served by the healthy replica: %v", err)
			}
			if !tc.served && err == nil {
				t.Fatal("read of an id no healthy replica holds succeeded")
			}
			errs := reg.CounterVec("vprof_cluster_node_errors_total", "", "node")
			for node, want := range map[string]float64{"a-stub": 1, "node-0": 0, "node-1": 0} {
				if got := errs.With(node).Value(); got != want {
					t.Errorf("vprof_cluster_node_errors_total{node=%q} = %v, want %v", node, got, want)
				}
			}
		})
	}
}

// TestCoordinatorStateBounded: the coordinator's decode cache, sketch cache
// and fetch hints each stay within their bound (64) however many blobs
// pass through it.
func TestCoordinatorStateBounded(t *testing.T) {
	const bound = 64
	d := newCluster(t, 3)
	for i := 0; i < 3*bound; i++ {
		e, _, err := d.Router.PutBlob("redis", store.LabelNormal, fmt.Sprint(i), sim.SyntheticBlob(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Router.Get(e.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Router.GetSketch(e.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.Router.CacheStats().Entries; n > bound {
		t.Errorf("decode cache holds %d profiles, want <= %d", n, bound)
	}
	if n := d.Router.SketchStats().Indexed; n > bound {
		t.Errorf("sketch cache holds %d sketches, want <= %d", n, bound)
	}
	if n := cluster.HintCount(d.Router); n > bound {
		t.Errorf("router holds %d fetch hints, want <= %d", n, bound)
	}
}

func TestNewNodeNeedsResolver(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := cluster.NewNode(cluster.NodeConfig{ID: "node-0", Store: st}); err == nil {
		t.Fatal("NewNode accepted a config without a resolver")
	}
}

// TestFetchAfterHintedNodeLeaves: a read whose hint names a node that has
// since left the cluster is served by the remaining replicas.
func TestFetchAfterHintedNodeLeaves(t *testing.T) {
	d := newCluster(t, 3)
	e, _, err := d.Router.PutBlob("redis", store.LabelNormal, "0", sim.SyntheticBlob(1))
	if err != nil {
		t.Fatal(err)
	}
	hint, ok := cluster.Hint(d.Router, e.ID)
	if !ok {
		t.Fatal("an acked push left no fetch hint")
	}
	d.Router.RemoveNode(hint)
	if _, err := d.Router.Get(e.ID); err != nil {
		t.Fatalf("read after the hinted node %s left: %v", hint, err)
	}
}
