package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// CheckGolden compares got with the checked-in artifact
// testdata/golden/<name> byte for byte and reports a line diff on
// mismatch. The golden files hold the paper artifacts as the tree-walking
// reference interpreter produced them; they change only when an artifact
// is meant to change.
func CheckGolden(t *testing.T, name, got string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	if want := string(data); got != want {
		t.Errorf("%s differs from testdata/golden/%s:\n%s", name, name, lineDiff(want, got))
	}
}

// lineDiff lists the lines that differ between want and got, by line
// number; the artifacts are fixed-layout tables, so positional comparison
// pinpoints every changed cell.
func lineDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b || i >= len(w) || i >= len(g) {
			fmt.Fprintf(&sb, "line %d:\n-%s\n+%s\n", i+1, a, b)
		}
	}
	return sb.String()
}
