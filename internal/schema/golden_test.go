package schema_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/schema"
)

// workloadsGolden pins the scored schema of every evaluation workload.
const workloadsGolden = "workloads.txt"

// renderWorkloadSchemas renders the scored schema of all 18 workloads
// (b1–b15, u1–u3) under one "== id version ==" header each: the buggy
// version's Built.Schema, and Built.NormalSch for the workloads whose
// normal runs use a different program version.
func renderWorkloadSchemas(t *testing.T) string {
	t.Helper()
	all := append(bugs.All(), bugs.UnresolvedIssues()...)
	if len(all) != 18 {
		t.Fatalf("expected 18 workloads, got %d", len(all))
	}
	var sb strings.Builder
	for _, w := range all {
		b, err := w.Build()
		if err != nil {
			t.Fatalf("%s: %v", w.ID, err)
		}
		sb.WriteString("== " + w.ID + " buggy ==\n")
		sb.WriteString(schema.FormatScored(b.Schema))
		if b.NormalSource != b.BuggySource {
			sb.WriteString("== " + w.ID + " normal ==\n")
			sb.WriteString(schema.FormatScored(b.NormalSch))
		}
	}
	return sb.String()
}

// TestWorkloadSchemasGolden requires every workload's schema — entries,
// lines, types, tags and relevance scores — to equal
// testdata/golden/workloads.txt byte for byte.
func TestWorkloadSchemasGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", workloadsGolden))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(data), "\n")
	got := strings.Split(renderWorkloadSchemas(t), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g || i >= len(want) || i >= len(got) {
			t.Errorf("line %d differs from testdata/golden/%s:\n-%s\n+%s", i+1, workloadsGolden, w, g)
		}
	}
}
