package cluster_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"vprof/internal/cluster"
	"vprof/internal/obs"
	"vprof/internal/profilefmt"
	"vprof/internal/profilefmt/profilefmttest"
	"vprof/internal/service"
	"vprof/internal/sim"
	"vprof/internal/store"
)

// TestPutBodyReads: the node's put handler keeps its statuses for
// oversized, short and chunked bodies.
func TestPutBodyReads(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	node, err := cluster.NewNode(cluster.NodeConfig{ID: "node-0", Store: st, Resolver: service.NewBugsResolver()})
	if err != nil {
		t.Fatal(err)
	}
	sim.CheckBodyReads(t, node.Handler(), "/internal/v1/put?workload=b3&label=normal&run=0", sim.SyntheticBlob(1))
}

// TestPutRefusesOverCapBundle: the node's put handler refuses a bundle of
// minimum-size records one sample over profilefmt.MaxBundleSamples with
// 400, as the service's ingest handler does, and a router push of it fails
// with the typed validation error.
func TestPutRefusesOverCapBundle(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	node, err := cluster.NewNode(cluster.NodeConfig{ID: "node-0", Store: st, Resolver: service.NewBugsResolver()})
	if err != nil {
		t.Fatal(err)
	}
	over := profilefmttest.MinimalBundle(profilefmt.MaxBundleSamples + 1)
	rec := httptest.NewRecorder()
	node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/internal/v1/put?workload=b3&label=normal&run=0", bytes.NewReader(over)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "sample count") {
		t.Errorf("over-cap bundle: HTTP %d (%s), want 400 naming the sample count", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if _, _, err := newCluster(t, 3).Router.PutBlob("b3", store.LabelNormal, "0", over); !errors.Is(err, store.ErrInvalidProfile) {
		t.Errorf("router push of an over-cap bundle: err = %v, want ErrInvalidProfile", err)
	}
}

// closeFunc is a response body that reports its Close.
type closeFunc struct {
	io.ReadCloser
	closed func()
}

func (c closeFunc) Close() error {
	c.closed()
	return c.ReadCloser.Close()
}

// TestPutBlobWaitsForLateBodyClose: net/http may close a request body on
// its own goroutine after RoundTrip returns. PutBlob must not return before
// the transport has closed every replica's body, and a blob recycled as
// soon as it returns lands byte-identical on every owner.
func TestPutBlobWaitsForLateBodyClose(t *testing.T) {
	d := newCluster(t, 3)
	gate := make(chan struct{})
	replied := make(chan struct{}, len(d.Nodes)) // one reply per owner
	var closed atomic.Int64
	r := coldRouter(t, d, nil, roundTripFunc(func(req *http.Request) (*http.Response, error) {
		body := req.Body
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(body)
		resp, err := d.Net.RoundTrip(req)
		go func() { // the transport lets go of the body late
			<-gate
			closed.Add(1)
			body.Close()
		}()
		if err != nil {
			return nil, err
		}
		resp.Body = closeFunc{resp.Body, func() { replied <- struct{}{} }}
		return resp, nil
	}))

	want := sim.SyntheticBlob(1)
	blob := append(obs.GetBuffer(len(want)), want...)
	var (
		entry          *store.Entry
		putErr         error
		closedAtReturn int64
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		entry, _, putErr = r.PutBlob("redis", store.LabelNormal, "0", blob)
		closedAtReturn = closed.Load()
		for i := range blob { // recycle at once
			blob[i] = 0
		}
		obs.PutBuffer(blob)
	}()
	for range d.Nodes {
		<-replied
	}
	// Every put has its reply: a PutBlob that waits only for its puts
	// returns now. Give it the chance before any body is closed.
	for i := 0; i < 100 && !isClosed(done); i++ {
		runtime.Gosched()
	}
	close(gate)
	<-done
	if putErr != nil {
		t.Fatal(putErr)
	}
	if closedAtReturn != int64(len(d.Nodes)) {
		t.Errorf("PutBlob returned with %d of %d request bodies closed", closedAtReturn, len(d.Nodes))
	}
	for _, n := range d.Nodes {
		got, err := n.Store().GetBlob(entry.ID)
		if err != nil {
			t.Errorf("%s: %v", n.ID, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s holds other bytes than were pushed", n.ID)
		}
	}
}

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
