package baselines_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"vprof/internal/baselines"
	"vprof/internal/bugs"
)

// TestCozRewireGolden pins Coz's results on a spread of reproduced issues
// (including a CrashesCOZ workload and a child-heavy workload) to
// testdata/coz_golden.json, recorded from the hand-rolled block-scaling
// loop Coz used before it was rewired onto internal/causal's shared
// virtual-speedup engine: Table 2's baseline output must stay byte-for-byte
// identical.
func TestCozRewireGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/coz_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]*baselines.Result
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b1", "b2", "b3", "b5", "b7", "b11", "b13", "u1"} {
		w := bugs.ByID(id)
		if w == nil {
			t.Fatalf("unknown workload %s", id)
		}
		b, err := w.Build()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want, ok := golden[id]
		if !ok {
			t.Fatalf("%s: no golden result", id)
		}
		if got := baselines.Coz(b.Target()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Coz diverged from the golden\n got: %+v\nwant: %+v", id, got, want)
		}
	}
}
