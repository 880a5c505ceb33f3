package service_test

import (
	"testing"

	"vprof/internal/service"
	"vprof/internal/sim"
	"vprof/internal/store"
)

// TestIngestBodyReads: the push handler's body read keeps its statuses for
// oversized, short and chunked bodies.
func TestIngestBodyReads(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := service.New(service.Config{Store: st, Resolver: service.NewBugsResolver()})
	if err != nil {
		t.Fatal(err)
	}
	sim.CheckBodyReads(t, srv.Handler(), "/v1/profiles?workload=b3&label=normal&run=0", sim.SyntheticBlob(1))
}
