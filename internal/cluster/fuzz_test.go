package cluster_test

import (
	"testing"

	"vprof/internal/cluster"
	"vprof/internal/service"
	"vprof/internal/sim"
	"vprof/internal/store"
)

// FuzzNodeHandler sends arbitrary requests through a node's real internal
// API over one store per fuzz process: no input may make the handler panic
// or cost a 500.
func FuzzNodeHandler(f *testing.F) {
	st, err := store.Open(f.TempDir(), store.Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	node, err := cluster.NewNode(cluster.NodeConfig{ID: "node-0", Store: st, Resolver: service.NewBugsResolver()})
	if err != nil {
		f.Fatal(err)
	}
	entry, _, err := st.PutBlob("b3", store.LabelNormal, "0", sim.SyntheticBlob(1))
	if err != nil {
		f.Fatal(err)
	}
	sim.FuzzHandler(f, node.Handler(), [][4]string{
		{"POST", "/internal/v1/put", "workload=b3&label=normal&run=1", string(sim.SyntheticBlob(2))},
		{"POST", "/internal/v1/put", "workload=b3&label=candidate&run=0", string(sim.SyntheticBlob(1))},
		{"GET", "/internal/v1/blob/" + entry.ID, "", ""},
		{"GET", "/internal/v1/sketch/" + entry.ID, "", ""},
		{"GET", "/internal/v1/entries", "workload=b3", ""},
		{"GET", "/internal/v1/entries", "", ""},
		{"POST", "/internal/v1/corpus", "", `{"workload":"b3","ids":["` + entry.ID + `"]}`},
		{"GET", "/internal/v1/health", "", ""},
		{"POST", "/internal/v1/flush", "", ""},
	}, nil)
}
