package cluster_test

import (
	"testing"

	"vprof/internal/cluster"
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
