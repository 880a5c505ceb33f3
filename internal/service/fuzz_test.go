package service_test

import (
	"encoding/base64"
	"errors"
	"testing"
	"time"

	"vprof/internal/service"
	"vprof/internal/sim"
	"vprof/internal/store"
)

// FuzzServiceHandler sends arbitrary requests through the service's real
// handler chain over one store per fuzz process: no input may make a
// handler panic (vprof_panics_total must not move) or cost a 500.
func FuzzServiceHandler(f *testing.F) {
	st, err := store.Open(f.TempDir(), store.Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	srv, err := service.New(service.Config{Store: st, Resolver: service.NewBugsResolver(), RequestTimeout: 2 * time.Second})
	if err != nil {
		f.Fatal(err)
	}
	panics := srv.Metrics().Counter("vprof_panics_total", "")
	seen := 0.0
	blob := string(sim.SyntheticBlob(1))
	batch := `{"profiles":[{"workload":"b3","label":"normal","run":"1","blob":"` +
		base64.StdEncoding.EncodeToString(sim.SyntheticBlob(2)) + `"}]}`
	sim.FuzzHandler(f, srv.Handler(), [][4]string{
		{"POST", "/v1/profiles", "workload=b3&label=normal&run=0", blob},
		{"POST", "/v1/profiles", "workload=b3&label=candidate&run=0", blob},
		{"POST", "/v1/profiles:batch", "", batch},
		{"POST", "/v1/diagnose", "", `{"workload":"b3","top":5}`},
		{"POST", "/v1/diagnose", "", `{"workload":"b3","sketches":true}`},
		{"POST", "/v1/check", "", `{"workload":"b3"}`},
		{"GET", "/v1/workloads", "", ""},
		{"GET", "/v1/report/r-0123456789abcdef", "", ""},
		{"GET", "/v1/stats", "", ""},
		{"GET", "/healthz", "", ""},
	}, func() error {
		if v := panics.Value(); v != seen {
			seen = v
			return errors.New("handler panicked")
		}
		return nil
	})
}
