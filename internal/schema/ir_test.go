package schema_test

import (
	"strings"
	"testing"

	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/diag"
	"vprof/internal/lang"
	"vprof/internal/schema"
)

// --- satellite edge cases ---

func TestSkipGlobalsTagInterplay(t *testing.T) {
	// A global that is cond-used AND an IR-detected induction variable
	// must stay out of the schema under SkipGlobals.
	src := `
var g_mode;
func main() {
	if (g_mode > 0) { work(1); }
	while (g_mode < 10) { g_mode = g_mode + 1; }
}`
	s, _ := gen(t, src, schema.Options{SkipGlobals: true})
	if e := s.Lookup(debuginfo.GlobalScope, "g_mode"); e != nil {
		t.Errorf("SkipGlobals violated by tagging: %+v", e)
	}
	s2, _ := gen(t, src, schema.Options{})
	e := s2.Lookup(debuginfo.GlobalScope, "g_mode")
	if e == nil || !e.Tags.Has(schema.TagCond|schema.TagLoop) {
		t.Errorf("g_mode = %+v, want cond|loop", e)
	}
}

func TestFunctionsGlobalTaggedElsewhere(t *testing.T) {
	// Both globals are induction variables, each in its own function. With
	// only fb selected, ga keeps its entry (globals always monitored) but
	// must not receive tags from the excluded function's loops.
	src := `
var ga;
var gb;
func fa() { while (ga < 10) { ga = ga + 1; } }
func fb() { while (gb < 10) { gb = gb + 1; } }
func main() { fa(); fb(); }`
	s, _ := gen(t, src, schema.Options{Functions: []string{"fb", "main"}})
	ea := s.Lookup(debuginfo.GlobalScope, "ga")
	if ea == nil || ea.Tags != schema.TagNone {
		t.Errorf("ga = %+v, want entry with no tags (its loops are filtered out)", ea)
	}
	eb := s.Lookup(debuginfo.GlobalScope, "gb")
	if eb == nil || !eb.Tags.Has(schema.TagCond|schema.TagLoop) {
		t.Errorf("gb = %+v, want cond|loop", eb)
	}
}

func TestEmptyCondForLoop(t *testing.T) {
	// for(;;) with an if-break: the IR analysis sees the break condition
	// as the loop's conditional exit and tags x as induction.
	src := `
func main() {
	var x = input(0);
	for (;;) {
		x = x - 1;
		if (x < 0) { break; }
	}
}`
	s, _ := gen(t, src, schema.Options{})
	e := s.Lookup("main", "x")
	if e == nil || !e.Tags.Has(schema.TagLoop) {
		t.Errorf("x = %+v, want loop tag via break condition", e)
	}
}

func TestBuiltinNameIdentsInCallArgs(t *testing.T) {
	// Builtin function names inside call expressions are not identifiers
	// and must never produce schema entries; a local shadowing a builtin
	// name is an ordinary variable.
	src := `
func main() {
	var n = input(0);
	out(min(n, 5));
	var max = input(1);
	if (max > n) { out(max); }
}`
	s, _ := gen(t, src, schema.Options{})
	for _, name := range []string{"min", "out", "input"} {
		if e := s.Lookup(debuginfo.GlobalScope, name); e != nil {
			t.Errorf("builtin %q monitored as global: %+v", name, e)
		}
	}
	if e := s.Lookup("main", "min"); e != nil {
		t.Errorf("builtin name monitored as local: %+v", e)
	}
	if e := s.Lookup("main", "n"); e == nil || !e.Tags.Has(schema.TagArgs) {
		t.Errorf("n = %+v, want args tag", e)
	}
	if e := s.Lookup("main", "max"); e == nil || !e.Tags.Has(schema.TagCond|schema.TagArgs) {
		t.Errorf("local max = %+v, want cond|args", e)
	}
}

func TestScopeAwareResolution(t *testing.T) {
	// The if condition reads the GLOBAL counter: the local declaration
	// appears later, inside the then-block's scope. The old resolver
	// attributed any identifier to the first same-named DeclStmt anywhere
	// in the function, wrongly tagging the local instead of the global.
	src := `
var counter;
func tick() {
	if (counter > 0) {
		var counter = 1;
		work(counter);
	}
}
func main() { tick(); }`
	s, _ := gen(t, src, schema.Options{})
	g := s.Lookup(debuginfo.GlobalScope, "counter")
	if g == nil || !g.Tags.Has(schema.TagCond) {
		t.Errorf("global counter = %+v, want cond tag (condition precedes the shadowing decl)", g)
	}
	l := s.Lookup("tick", "counter")
	if l == nil || !l.Tags.Has(schema.TagArgs) || l.Tags.Has(schema.TagCond) {
		t.Errorf("local counter = %+v, want args without cond", l)
	}
	if l != nil && l.Line != 5 {
		t.Errorf("local counter line = %d, want 5 (the inner declaration)", l.Line)
	}
}

// --- relevance scoring and pruning ---

const scoringSrc = `
var pool_cap = 100;

func main() {
	var n = input(0);
	var total = 0;
	if (pool_cap > 0) { work(1); }
	for (var i = 0; i < n; i++) {
		for (var j = 0; j < i; j++) {
			total = total + 1;
		}
	}
	out(total);
}`

func TestScoreLoopDepthWeighting(t *testing.T) {
	s, _ := gen(t, scoringSrc, schema.Options{})
	score := func(fn, name string) float64 {
		t.Helper()
		e := s.Lookup(fn, name)
		if e == nil {
			t.Fatalf("%s.%s missing", fn, name)
		}
		return e.Score
	}
	// i: loop|cond weight 4, deepest access in the inner condition
	// (j < i, depth 2) -> 4 * 3 = 12. Same for j.
	if got := score("main", "i"); got != 12 {
		t.Errorf("score(i) = %v, want 12", got)
	}
	if got := score("main", "j"); got != 12 {
		t.Errorf("score(j) = %v, want 12", got)
	}
	// n: cond weight 2, accessed at depth 1 -> 4.
	if got := score("main", "n"); got != 4 {
		t.Errorf("score(n) = %v, want 4", got)
	}
	// total: args weight 2, written at depth 2 -> 6.
	if got := score("main", "total"); got != 6 {
		t.Errorf("score(total) = %v, want 6", got)
	}
	// pool_cap never varies (only the initializer stores it): pruned to 0
	// despite its cond tag.
	if got := score(debuginfo.GlobalScope, "pool_cap"); got != 0 {
		t.Errorf("score(pool_cap) = %v, want 0 (constant)", got)
	}
}

func TestScoreDeadVariable(t *testing.T) {
	s, _ := gen(t, `
var sink;
func main() {
	sink = input(0);
	work(sink + 0);
	var unread = input(1);
	out(7);
	if (input(2) > unread) { work(1); }
}`, schema.Options{})
	// sink is read (work(sink+0)): not dead.
	if e := s.Lookup(debuginfo.GlobalScope, "sink"); e == nil || e.Score == 0 {
		t.Errorf("sink = %+v, want nonzero score", e)
	}
	// unread is loaded in the comparison, so it is live too; flip to a
	// truly dead one below.
	s2, _ := gen(t, `
var ghost;
func main() {
	ghost = input(0);
	if (input(1) > 0) { work(1); }
}`, schema.Options{})
	if e := s2.Lookup(debuginfo.GlobalScope, "ghost"); e == nil || e.Score != 0 {
		t.Errorf("ghost = %+v, want score 0 (stored but never read)", e)
	}
}

func TestMinScorePruning(t *testing.T) {
	full, _ := gen(t, scoringSrc, schema.Options{})
	s, _ := gen(t, scoringSrc, schema.Options{MinScore: 5})
	if s.Lookup("main", "i") == nil || s.Lookup("main", "j") == nil || s.Lookup("main", "total") == nil {
		t.Fatalf("high-score entries pruned: %v", s.Entries)
	}
	if s.Lookup("main", "n") != nil {
		t.Error("n (score 4) survived MinScore 5")
	}
	if s.Lookup(debuginfo.GlobalScope, "pool_cap") != nil {
		t.Error("constant global survived MinScore")
	}
	if want := len(full.Entries) - len(s.Entries); s.Pruned != want {
		t.Errorf("Pruned = %d, want %d", s.Pruned, want)
	}
}

func TestMaxEntriesDeterministic(t *testing.T) {
	s, _ := gen(t, scoringSrc, schema.Options{MaxEntries: 2})
	if len(s.Entries) != 2 {
		t.Fatalf("MaxEntries ignored: %d entries", len(s.Entries))
	}
	// Top two by score are i and j (12 each; ties break on name), and the
	// output stays in canonical function/variable order.
	if s.Entries[0].Variable != "i" || s.Entries[1].Variable != "j" {
		t.Errorf("kept %s, %s; want i, j", s.Entries[0].Variable, s.Entries[1].Variable)
	}
	if s.Pruned == 0 {
		t.Error("Pruned not recorded")
	}
	// Byte-identical output across repeated generation.
	first := schema.FormatScored(s)
	for run := 0; run < 5; run++ {
		again, _ := gen(t, scoringSrc, schema.Options{MaxEntries: 2})
		if got := schema.FormatScored(again); got != first {
			t.Fatalf("run %d: pruned schema not deterministic:\n%s\nvs\n%s", run, got, first)
		}
	}
}

func TestLookupAfterMutation(t *testing.T) {
	// The lookup index rebuilds when the entry slice is replaced.
	s, _ := gen(t, scoringSrc, schema.Options{})
	if s.Lookup("main", "i") == nil {
		t.Fatal("i missing")
	}
	s.Entries = append([]schema.Entry(nil), s.Entries[:1]...)
	if got := s.Lookup(s.Entries[0].Function, s.Entries[0].Variable); got == nil {
		t.Error("lookup failed after truncation")
	}
	if len(s.Entries) == 1 && s.Lookup("main", "definitely-absent") != nil {
		t.Error("phantom entry found")
	}
}

// --- coverage verification ---

// spillSrc forces both DWARF failure modes: slot 8 (the 9th parameter) is a
// stack spill with no location entries at all, and slots 4..7 are
// caller-saved registers whose location entries break at the helper() call.
const spillSrc = `
func helper(x) { return x + 1; }

func spill(a0, a1, a2, a3, a4, a5, a6, a7, a8) {
	if (a8 > 0) { work(helper(a4)); }
	if (a5 > a0) { work(1); }
	return a0;
}

func main() {
	out(spill(input(0), 1, 2, 3, 4, 5, 6, 7, 8));
}`

func TestVerifyCoverage(t *testing.T) {
	f, err := lang.Parse("spill.vp", spillSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.GenerateIR(f, p, schema.Options{})
	rep := schema.Verify(s, p.Debug)
	if len(rep.Vars) != len(s.Entries) {
		t.Fatalf("report covers %d of %d entries", len(rep.Vars), len(s.Entries))
	}
	var noloc, gapped *schema.VarCoverage
	for i := range rep.Vars {
		v := &rep.Vars[i]
		if v.Entry.Function != "spill" {
			continue
		}
		if v.Entry.Variable == "a8" {
			noloc = v
		}
		if len(v.Gaps) > 0 && gapped == nil {
			gapped = v
		}
	}
	if noloc == nil || !noloc.NoLocation || noloc.Locs != 0 {
		t.Fatalf("a8 coverage = %+v, want NoLocation (stack spill)", noloc)
	}
	if noloc.SpanEnd <= noloc.SpanStart {
		t.Errorf("a8 expected span empty: %+v", noloc)
	}
	if rep.Dropped() < 1 {
		t.Errorf("Dropped() = %d, want >= 1", rep.Dropped())
	}
	if gapped == nil {
		t.Fatal("no caller-saved variable with location gaps found")
	}
	if c := gapped.Covered(); c <= 0 || c >= 1 {
		t.Errorf("gapped coverage fraction = %v, want in (0,1)", c)
	}
	if rep.GapCount() < 1 {
		t.Errorf("GapCount() = %d, want >= 1", rep.GapCount())
	}
	// Translate drops exactly the NoLocation entries.
	meta := schema.Translate(s, p.Debug)
	for _, m := range meta {
		if m.Func == "spill" && m.Name == "a8" {
			t.Error("Translate produced metadata for a spilled variable")
		}
	}
	out := rep.Render()
	if !strings.Contains(out, "NO location info") || !strings.Contains(out, "gaps at") {
		t.Errorf("render lacks gap/no-location lines:\n%s", out)
	}
	if out != rep.Render() {
		t.Error("render not deterministic")
	}
}

func TestVerifyFullCoverage(t *testing.T) {
	// Callee-saved locals and globals are fully covered: no gaps, none
	// dropped.
	f, err := lang.Parse("t.vp", `
var g = 1;
func main() {
	var a = input(0);
	if (a > g) { work(1); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.GenerateIR(f, p, schema.Options{})
	rep := schema.Verify(s, p.Debug)
	if rep.Dropped() != 0 || rep.GapCount() != 0 {
		t.Errorf("dropped=%d gaps=%d, want 0/0:\n%s", rep.Dropped(), rep.GapCount(), rep.Render())
	}
	for i := range rep.Vars {
		if c := rep.Vars[i].Covered(); c != 1 {
			t.Errorf("%s.%s covered %v, want 1", rep.Vars[i].Entry.Function, rep.Vars[i].Entry.Variable, c)
		}
	}
}

// --- lint ---

func TestLint(t *testing.T) {
	f, err := lang.Parse("t.vp", `
var tuning = 4096;
var scratch;

func spin() {
	for (;;) { work(1); }
}

func f(n) {
	return n;
	work(99);
}

func main() {
	scratch = f(input(0));
	if (tuning > 0) { work(1); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	rep := schema.Lint(f, p)
	kinds := map[string][]diag.Finding{}
	for _, fd := range rep.Findings {
		kinds[fd.Rule] = append(kinds[fd.Rule], fd)
	}
	if got := kinds["loop-no-exit"]; len(got) != 1 || got[0].Function != "spin" {
		t.Errorf("loop-no-exit = %+v, want one in spin", got)
	}
	found := false
	for _, fd := range kinds["unreachable-code"] {
		if fd.Function == "f" {
			found = true
		}
	}
	if !found {
		t.Errorf("no unreachable-code finding in f: %+v", kinds["unreachable-code"])
	}
	// The synthesized trailing "return 0" of functions that already return
	// must not be reported: main and helper end without explicit returns,
	// and f's real dead code is already counted above.
	for _, fd := range kinds["unreachable-code"] {
		if fd.Function != "f" {
			t.Errorf("spurious unreachable-code finding: %+v", fd)
		}
	}
	if got := kinds["const-var"]; len(got) != 1 || got[0].Variable != "tuning" {
		t.Errorf("const-var = %+v, want tuning", got)
	}
	if got := kinds["dead-var"]; len(got) != 1 || got[0].Variable != "scratch" {
		t.Errorf("dead-var = %+v, want scratch", got)
	}
	out := rep.Render()
	if !strings.Contains(out, "lint:") || !strings.Contains(out, "loop-no-exit") {
		t.Errorf("render:\n%s", out)
	}
}

// --- static priors ---

// TestStaticPriors checks the abstract-interpretation score adjustments:
// trip-bound and work-feeding variables double, provably-constant ones
// halve, and with priors disabled (the default) scores are untouched.
func TestStaticPriors(t *testing.T) {
	src := `
func main() {
	var n = input(0);
	var amount = input(1);
	var seed;
	var flag = seed;
	var i = 0;
	while (i < n) {
		work(amount);
		if (flag > 0) { work(1); }
		i = i + 1;
	}
}`
	f, err := lang.Parse("t.vp", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	base := schema.GenerateIR(f, p, schema.Options{})
	with := schema.GenerateIR(f, p, schema.Options{StaticPriors: true})
	if len(base.Entries) != len(with.Entries) {
		t.Fatalf("priors changed the entry set: %d vs %d", len(base.Entries), len(with.Entries))
	}
	ratio := func(fn, v string) float64 {
		b, w := base.Lookup(fn, v), with.Lookup(fn, v)
		if b == nil || w == nil {
			t.Fatalf("%s.%s missing from schema", fn, v)
		}
		return w.Score / b.Score
	}
	if r := ratio("main", "n"); r != 2 {
		t.Errorf("n (trip bound) score ratio = %v, want 2", r)
	}
	if r := ratio("main", "amount"); r != 2 {
		t.Errorf("amount (feeds work) score ratio = %v, want 2", r)
	}
	// flag copies a zero-initialized local, so the interpreter pins it to 0
	// everywhere — a constancy proof the literal-store heuristic (varFacts,
	// which only folds `var x = <literal>`) cannot make.
	if r := ratio("main", "flag"); r != 0.5 {
		t.Errorf("flag (provably constant) score ratio = %v, want 0.5", r)
	}
	// The induction variable i is a trip-bound *counter*, not the bound
	// symbol; it must not be rewarded as one, but it is also not constant.
	if r := ratio("main", "i"); r != 1 && r != 2 {
		t.Errorf("i score ratio = %v, want unchanged or work-fed", r)
	}

	// Disabled priors must be byte-for-byte the heuristic scorer's output.
	again := schema.GenerateIR(f, p, schema.Options{})
	if schema.FormatScored(base) != schema.FormatScored(again) {
		t.Error("default (priors off) schema not stable")
	}
}
