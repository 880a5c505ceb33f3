package schema_test

import (
	"os"
	"path/filepath"
	"testing"

	"vprof/internal/bugs"
	"vprof/internal/compiler"
	"vprof/internal/lang"
	"vprof/internal/schema"
)

// FuzzSchema runs schema generation on every input that parses and
// compiles: two runs must render the identical scored schema, and the
// pruned, static-prior variant must translate and verify against the debug
// information without panicking. The corpus is seeded with every
// bug-workload source, the checked-in testdata programs, and a for(;;)
// loop whose only exit is an if-break.
func FuzzSchema(f *testing.F) {
	f.Add(`
func main() {
	var x = input(0);
	for (;;) {
		x = x - 1;
		if (x < 0) { break; }
	}
}`)
	for _, w := range append(bugs.All(), bugs.UnresolvedIssues()...) {
		f.Add(w.Source)
		if w.NormalSource != "" {
			f.Add(w.NormalSource)
		}
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.vp"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		file, err := lang.Parse("fuzz.vp", src)
		if err != nil {
			t.Skip()
		}
		p, err := compiler.Compile(file)
		if err != nil {
			t.Skip()
		}
		first := schema.FormatScored(schema.GenerateIR(file, p, schema.Options{}))
		if again := schema.FormatScored(schema.GenerateIR(file, p, schema.Options{})); again != first {
			t.Fatalf("schema differs between runs:\n--- first\n%s--- again\n%s", first, again)
		}
		pruned := schema.GenerateIR(file, p, schema.Options{StaticPriors: true, MaxEntries: 3})
		schema.Translate(pruned, p.Debug)
		schema.Verify(pruned, p.Debug)
	})
}
