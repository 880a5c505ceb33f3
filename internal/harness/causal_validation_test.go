package harness_test

import (
	"reflect"
	"strings"
	"testing"
)

// expectedCausalRanks pins the root cause's causal-impact rank per workload.
// These are deterministic (tick VM, fixed seeds), so any drift is a real
// behavior change in the causal engine and must be reviewed.
var expectedCausalRanks = map[string]int{
	"b1": 3, "b2": 4, "b3": 1, "b4": 1, "b5": 1, "b6": 2,
	"b7": 2, "b8": 1, "b9": 1, "b10": 1, "b11": 1, "b12": 1,
	"b13": 3, "b14": 1, "b15": 7, "u1": 5, "u2": 2, "u3": 1,
}

func TestCausalValidation(t *testing.T) {
	res := causalAt(t, 8)
	table, rows := res.text, res.rows
	t.Logf("\n%s", table)
	if len(rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	top3 := 0
	for _, r := range rows {
		if want := expectedCausalRanks[r.ID]; r.CausalRank != want {
			t.Errorf("%s: causal rank = %d, want %d", r.ID, r.CausalRank, want)
		}
		if r.CausalRank >= 1 && r.CausalRank <= 3 {
			top3++
		}
		if r.CalibratedRank == 0 {
			t.Errorf("%s: calibrated diagnosis did not rank the root cause", r.ID)
		}
		if r.Overlap >= 2 && (r.Spearman < -1 || r.Spearman > 1) {
			t.Errorf("%s: spearman %v out of [-1,1]", r.ID, r.Spearman)
		}
	}
	// ISSUE acceptance: root cause in the causal top-3 on >= 14 of 18.
	if top3 < 14 {
		t.Errorf("causal top-3 agreement = %d/18, want >= 14", top3)
	}
	if !strings.Contains(table, "root cause in causal top-3: 15/18") {
		t.Errorf("table footer missing agreement count:\n%s", table)
	}
}

func TestCausalValidationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full validation sweeps")
	}
	seq, par := causalAt(t, 1), causalAt(t, 8)
	if seq.text != par.text {
		t.Errorf("causal validation table differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq.text, par.text)
	}
	if !reflect.DeepEqual(seq.rows, par.rows) {
		t.Error("causal validation rows differ between workers=1 and workers=8")
	}
}
