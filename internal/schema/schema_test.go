package schema_test

import (
	"strings"
	"testing"

	"vprof/internal/compiler"
	"vprof/internal/debuginfo"
	"vprof/internal/lang"
	"vprof/internal/schema"
)

// The paper's Figure 1 shape: a global, a derived local used in a condition
// and as a call argument, and a loop.
const recoverySrc = `
var recv_n_pool_free_frames;
var srv_page_size = 4096;

func buf_pool_get_n_pages() {
	return input(0);
}

func recv_sys_init() {
	recv_n_pool_free_frames = buf_pool_get_n_pages() / 3;
}

func recv_scan_log_recs(available_mem) {
	if (available_mem <= 0) {
		return false;
	}
	work(50);
	return true;
}

func recv_group_scan_log_recs(checkpoint_lsn) {
	var available_mem = srv_page_size * (buf_pool_get_n_pages() - recv_n_pool_free_frames);
	var end_lsn = 0;
	var start_lsn = checkpoint_lsn;
	while (end_lsn != start_lsn && !recv_scan_log_recs(available_mem)) {
		end_lsn = end_lsn + 10;
	}
	return true;
}

func main() {
	recv_sys_init();
	recv_group_scan_log_recs(7);
}
`

func gen(t *testing.T, src string, opts schema.Options) (*schema.Schema, *compiler.Program) {
	t.Helper()
	f, err := lang.Parse("log0recv.vp", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return schema.GenerateIR(f, p, opts), p
}

func TestGenerateGlobals(t *testing.T) {
	s, _ := gen(t, recoverySrc, schema.Options{})
	for _, name := range []string{"recv_n_pool_free_frames", "srv_page_size"} {
		e := s.Lookup(debuginfo.GlobalScope, name)
		if e == nil {
			t.Errorf("global %s not in schema", name)
		}
	}
}

func TestGenerateCondAndArgsTags(t *testing.T) {
	s, _ := gen(t, recoverySrc, schema.Options{})
	// available_mem in recv_group_scan_log_recs: used in while condition
	// via the call and passed as a call argument -> cond|args.
	e := s.Lookup("recv_group_scan_log_recs", "available_mem")
	if e == nil {
		t.Fatal("available_mem not monitored")
	}
	if !e.Tags.Has(schema.TagCond) || !e.Tags.Has(schema.TagArgs) {
		t.Errorf("available_mem tags = %v, want cond|args", e.Tags)
	}
	// checkpoint_lsn is a formal parameter -> args.
	p := s.Lookup("recv_group_scan_log_recs", "checkpoint_lsn")
	if p == nil || !p.Tags.Has(schema.TagArgs) {
		t.Errorf("checkpoint_lsn = %+v, want args tag", p)
	}
	// The parameter of recv_scan_log_recs is used in an if condition.
	q := s.Lookup("recv_scan_log_recs", "available_mem")
	if q == nil || !q.Tags.Has(schema.TagCond) {
		t.Errorf("recv_scan_log_recs.available_mem = %+v, want cond", q)
	}
}

func TestGenerateLoopInduction(t *testing.T) {
	s, _ := gen(t, recoverySrc, schema.Options{})
	e := s.Lookup("recv_group_scan_log_recs", "end_lsn")
	if e == nil {
		t.Fatal("end_lsn not monitored")
	}
	if !e.Tags.Has(schema.TagLoop) {
		t.Errorf("end_lsn tags = %v, want loop", e.Tags)
	}
	// start_lsn is in the condition but never assigned in the loop:
	// cond only, no loop tag.
	st := s.Lookup("recv_group_scan_log_recs", "start_lsn")
	if st == nil || st.Tags.Has(schema.TagLoop) || !st.Tags.Has(schema.TagCond) {
		t.Errorf("start_lsn = %+v, want cond without loop", st)
	}
}

func TestGenerateForLoop(t *testing.T) {
	s, _ := gen(t, `
func main() {
	var n = input(0);
	for (var i = 0; i < n; i++) {
		work(1);
	}
}`, schema.Options{})
	e := s.Lookup("main", "i")
	if e == nil || !e.Tags.Has(schema.TagLoop) || !e.Tags.Has(schema.TagCond) {
		t.Errorf("for induction var i = %+v, want loop|cond", e)
	}
}

func TestUntaggedLocalsExcluded(t *testing.T) {
	s, _ := gen(t, `
func main() {
	var plain = 42;
	var used = 1;
	if (used > 0) { work(1); }
}`, schema.Options{})
	if e := s.Lookup("main", "plain"); e != nil {
		t.Errorf("plain local monitored: %+v", e)
	}
	if e := s.Lookup("main", "used"); e == nil {
		t.Error("conditional variable not monitored")
	}
}

func TestPointerType(t *testing.T) {
	s, _ := gen(t, `
func main() {
	var block = alloc();
	if (block != 0) { work(1); }
	var n = 3;
	if (n > 0) { work(1); }
}`, schema.Options{})
	if e := s.Lookup("main", "block"); e == nil || e.Type != "ptr" {
		t.Errorf("block = %+v, want type ptr", e)
	}
	if e := s.Lookup("main", "n"); e == nil || e.Type != "int" {
		t.Errorf("n = %+v, want type int", e)
	}
}

func TestFunctionsOption(t *testing.T) {
	s, _ := gen(t, recoverySrc, schema.Options{Functions: []string{"recv_group_scan_log_recs"}})
	if e := s.Lookup("recv_scan_log_recs", "available_mem"); e != nil {
		t.Errorf("filtered function's local monitored: %+v", e)
	}
	if e := s.Lookup("recv_group_scan_log_recs", "available_mem"); e == nil {
		t.Error("selected function's local missing")
	}
	// Globals remain monitored regardless of filter.
	if e := s.Lookup(debuginfo.GlobalScope, "srv_page_size"); e == nil {
		t.Error("global dropped by function filter")
	}
}

func TestSkipGlobals(t *testing.T) {
	s, _ := gen(t, recoverySrc, schema.Options{SkipGlobals: true})
	if e := s.Lookup(debuginfo.GlobalScope, "srv_page_size"); e != nil {
		t.Error("global present despite SkipGlobals")
	}
}

func TestSchemaFormat(t *testing.T) {
	s, _ := gen(t, recoverySrc, schema.Options{})
	text := schema.Format(s)
	if !strings.Contains(text, "log0recv.vp, #global") {
		t.Errorf("format lacks global entry:\n%s", text)
	}
	if !strings.Contains(text, "available_mem, int, cond|args") {
		t.Errorf("format lacks tagged entry:\n%s", text)
	}
}

func TestTranslate(t *testing.T) {
	s, p := gen(t, recoverySrc, schema.Options{})
	metas := schema.Translate(s, p.Debug)
	if len(metas) == 0 {
		t.Fatal("no metadata produced")
	}
	// Every metadata entry must correspond to a schema entry.
	for _, m := range metas {
		if s.Lookup(m.Func, m.Name) == nil {
			t.Errorf("metadata for unmonitored variable %s.%s", m.Func, m.Name)
		}
	}
	// available_mem must be locatable (it is an early local -> callee-saved).
	found := false
	for _, m := range metas {
		if m.Func == "recv_group_scan_log_recs" && m.Name == "available_mem" {
			found = true
			if m.Loc != debuginfo.LocReg {
				t.Errorf("available_mem loc = %v, want register", m.Loc)
			}
		}
	}
	if !found {
		t.Error("available_mem has no metadata")
	}
	// Globals translate to memory entries scoped to referencing functions.
	var globalRanges int
	for _, m := range metas {
		if m.Func == debuginfo.GlobalScope && m.Name == "recv_n_pool_free_frames" {
			globalRanges++
			if m.Loc != debuginfo.LocMem {
				t.Errorf("global metadata wrong: %+v", m)
			}
			fn := p.Debug.FuncAt(m.PCStart)
			if fn == nil || (fn.Name != "recv_sys_init" && fn.Name != "recv_group_scan_log_recs") {
				t.Errorf("global range in unexpected function: %+v", m)
			}
		}
	}
	if globalRanges != 2 {
		t.Errorf("recv_n_pool_free_frames has %d ranges, want 2 (its referencing functions)", globalRanges)
	}
}

func TestTagString(t *testing.T) {
	if got := (schema.TagCond | schema.TagArgs).String(); got != "cond|args" {
		t.Errorf("got %q", got)
	}
	if got := schema.TagNone.String(); got != "None" {
		t.Errorf("got %q", got)
	}
	if got := (schema.TagLoop | schema.TagCond | schema.TagArgs).String(); got != "loop|cond|args" {
		t.Errorf("got %q", got)
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s, _ := gen(t, recoverySrc, schema.Options{})
	// The scored 7-field form round-trips entries exactly.
	text := schema.FormatScored(s)
	parsed, err := schema.Parse(strings.NewReader("# header comment\n\n" + text))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Entries) != len(s.Entries) {
		t.Fatalf("round trip: %d entries, want %d", len(parsed.Entries), len(s.Entries))
	}
	for i := range s.Entries {
		if parsed.Entries[i] != s.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, parsed.Entries[i], s.Entries[i])
		}
	}
	// The unscored 6-field form drops only the score.
	parsed6, err := schema.Parse(strings.NewReader(schema.Format(s)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Entries {
		e := s.Entries[i]
		e.Score = 0
		if parsed6.Entries[i] != e {
			t.Fatalf("6-field entry %d: %+v != %+v", i, parsed6.Entries[i], e)
		}
	}
}

func TestSchemaParseErrors(t *testing.T) {
	cases := []string{
		"too,few,fields",
		"f.vp, main, NaN, x, int, cond",
		"f.vp, main, 3, x, int, bogus|cond",
	}
	for _, c := range cases {
		if _, err := schema.Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q): expected error", c)
		}
	}
}

func TestParseTags(t *testing.T) {
	cases := map[string]schema.Tag{
		"None":           schema.TagNone,
		"":               schema.TagNone,
		"loop":           schema.TagLoop,
		"cond|args":      schema.TagCond | schema.TagArgs,
		"loop|cond|args": schema.TagLoop | schema.TagCond | schema.TagArgs,
	}
	for in, want := range cases {
		got, err := schema.ParseTags(in)
		if err != nil || got != want {
			t.Errorf("ParseTags(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}
