package analysis_test

import (
	"math/rand"
	"reflect"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

func sketchesOf(profiles []*sampler.Profile) []*sketch.Profile {
	out := make([]*sketch.Profile, len(profiles))
	for i, p := range profiles {
		out[i] = sketch.FromProfile(p)
	}
	return out
}

// TestSketchAnalysisMatchesFull pins the incremental path to the offline
// one: AnalyzeSketchesContext over every run's full sketch, without a
// trail, must reproduce AnalyzeContext bit for bit — same ranking, same
// calibrated costs, same per-variable verdicts — with only the
// trail-derived fields (AbnormalPCs, Blocks) absent.
func TestSketchAnalysisMatchesFull(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	normal := tb.profileRuns(t, 3, 40)
	buggy := tb.profileRuns(t, 3, 90)
	p := analysis.DefaultParams()

	full, err := analysis.Analyze(analysis.Input{
		Debug:  tb.prog.Debug,
		Schema: tb.sch,
		Normal: normal,
		Buggy:  buggy,
	}, p)
	if err != nil {
		t.Fatal(err)
	}

	nsk, bsk := sketchesOf(normal), sketchesOf(buggy)
	sk, err := analysis.AnalyzeSketches(analysis.SketchInput{
		Debug:  tb.prog.Debug,
		Schema: tb.sch,
		Normal: nsk[0],
		Corpus: analysis.CorpusOfSketches(nsk, tb.prog.Debug),
		Buggy:  bsk,
	}, p)
	if err != nil {
		t.Fatal(err)
	}

	if len(sk.Funcs) != len(full.Funcs) {
		t.Fatalf("sketch report has %d funcs, full has %d", len(sk.Funcs), len(full.Funcs))
	}
	for i := range full.Funcs {
		f, s := &full.Funcs[i], &sk.Funcs[i]
		if f.Name != s.Name || f.Rank != s.Rank {
			t.Fatalf("rank %d: full %q vs sketch %q", i+1, f.Name, s.Name)
		}
		if f.PCCost != s.PCCost || f.VarCost != s.VarCost || f.RawCost != s.RawCost {
			t.Errorf("%s: costs differ: full (%v,%v,%v) sketch (%v,%v,%v)",
				f.Name, f.PCCost, f.VarCost, f.RawCost, s.PCCost, s.VarCost, s.RawCost)
		}
		if f.Discount != s.Discount || f.DiscountSource != s.DiscountSource || f.Calibrated != s.Calibrated {
			t.Errorf("%s: discount differs: full (%v,%s,%v) sketch (%v,%s,%v)",
				f.Name, f.Discount, f.DiscountSource, f.Calibrated, s.Discount, s.DiscountSource, s.Calibrated)
		}
		if f.Pattern != s.Pattern {
			t.Errorf("%s: pattern %v vs %v", f.Name, f.Pattern, s.Pattern)
		}
		switch {
		case (f.TopVariable == nil) != (s.TopVariable == nil):
			t.Errorf("%s: TopVariable presence differs", f.Name)
		case f.TopVariable != nil:
			ft, st := f.TopVariable, s.TopVariable
			if ft.Func != st.Func || ft.Name != st.Name || ft.Discount != st.Discount || ft.Dimension != st.Dimension {
				t.Errorf("%s: top variable differs: %s.%s(%v,%v) vs %s.%s(%v,%v)", f.Name,
					ft.Func, ft.Name, ft.Discount, ft.Dimension, st.Func, st.Name, st.Discount, st.Dimension)
			}
		}
	}

	if len(sk.Variables) != len(full.Variables) {
		t.Fatalf("sketch analyzed %d variables, full %d", len(sk.Variables), len(full.Variables))
	}
	for key, fv := range full.Variables {
		sv := sk.Variables[key]
		if sv == nil {
			t.Fatalf("variable %q missing from sketch report", key)
		}
		if fv.Discount != sv.Discount || fv.Dimension != sv.Dimension || fv.Tested != sv.Tested {
			t.Errorf("%q: verdict differs: full (%v,%v,%v) sketch (%v,%v,%v)", key,
				fv.Discount, fv.Dimension, fv.Tested, sv.Discount, sv.Dimension, sv.Tested)
		}
		if fv.NormalCount != sv.NormalCount || fv.BuggyCount != sv.BuggyCount {
			t.Errorf("%q: counts differ: (%d,%d) vs (%d,%d)", key,
				fv.NormalCount, fv.BuggyCount, sv.NormalCount, sv.BuggyCount)
		}
		if fv.MaxRunNormal != sv.MaxRunNormal || fv.MaxRunBuggy != sv.MaxRunBuggy || fv.RunsBuggy != sv.RunsBuggy {
			t.Errorf("%q: run stats differ: (%v,%v,%d) vs (%v,%v,%d)", key,
				fv.MaxRunNormal, fv.MaxRunBuggy, fv.RunsBuggy, sv.MaxRunNormal, sv.MaxRunBuggy, sv.RunsBuggy)
		}
		if fv.Tags != sv.Tags || fv.IsPointer != sv.IsPointer {
			t.Errorf("%q: tags/pointer differ", key)
		}
	}
}

// TestCorpusIncrementalMatchesBatch: folding normal runs into a corpus one
// at a time — or shard-wise with Merge — yields the same hist-discounter
// verdicts as the batch AnalyzeContext computation.
func TestCorpusIncrementalMatchesBatch(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	normal := tb.profileRuns(t, 5, 40)
	nsk := sketchesOf(normal)

	batch := analysis.CorpusOfSketches(nsk, tb.prog.Debug)

	inc := analysis.NewCorpus()
	for _, s := range nsk {
		inc.AddSketch(s, tb.prog.Debug)
	}
	if !reflect.DeepEqual(batch, inc) {
		t.Fatalf("incremental corpus != batch:\n%+v\n%+v", batch, inc)
	}

	shardA := analysis.CorpusOfSketches(nsk[:2], tb.prog.Debug)
	shardB := analysis.CorpusOfSketches(nsk[2:], tb.prog.Debug)
	shardA.Merge(shardB)
	if !reflect.DeepEqual(batch, shardA) {
		t.Fatalf("merged shard corpora != batch:\n%+v\n%+v", batch, shardA)
	}

	clone := batch.Clone()
	clone.AddRanks(map[string]int{"bogus": 1})
	if reflect.DeepEqual(batch, clone) {
		t.Fatal("Clone aliases the original")
	}
}

// TestSketchFoldPreservesUnits: the sketch's per-PC unit counts reproduce
// FuncValueSampleUnits exactly, so variable-based raw costs are identical in
// sketch mode.
func TestSketchFoldPreservesUnits(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	prof := tb.profileRuns(t, 1, 90)[0]
	sk := sketch.FromProfile(prof)

	want := prof.FuncValueSampleUnits(tb.prog.Debug)
	got := map[string]int64{}
	for _, e := range sk.UnitsByPC {
		if fn := tb.prog.Debug.FuncAt(int(e.Key)); fn != nil {
			got[fn.Name] += e.Count
		}
	}
	for fn, w := range want {
		if got[fn] != w {
			t.Errorf("%s: sketch units %d, profile units %d", fn, got[fn], w)
		}
	}
	for fn, g := range got {
		if want[fn] == 0 && g != 0 {
			t.Errorf("%s: sketch has %d units, profile none", fn, g)
		}
	}
}

// TestSketchRanksMatchProfile: the per-run cost ranking derived from a
// sketch's sparse PC histogram matches the full profile's.
func TestSketchRanksMatchProfile(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	for _, inputs := range [][]int64{{40}, {90}} {
		prof := tb.profileRuns(t, 1, inputs...)[0]
		sk := sketch.FromProfile(prof)
		c := analysis.NewCorpus()
		c.AddSketch(sk, tb.prog.Debug)

		full, err := analysis.Analyze(analysis.Input{
			Debug:  tb.prog.Debug,
			Schema: tb.sch,
			Normal: []*sampler.Profile{prof},
			Buggy:  []*sampler.Profile{prof},
		}, analysis.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ranks := stats.Ranks(pcCostOf(full))
		for f, r := range ranks {
			lst := c.Ranks[f]
			if len(lst) != 1 || lst[0] != r {
				t.Errorf("inputs %v: %s rank %v in corpus, want [%d]", inputs, f, lst, r)
			}
		}
	}
}

// pcCostOf recovers the PC-cost map from a report's rows.
func pcCostOf(rep *analysis.Report) map[string]float64 {
	out := map[string]float64{}
	for i := range rep.Funcs {
		if rep.Funcs[i].PCCost > 0 {
			out[rep.Funcs[i].Name] = rep.Funcs[i].PCCost
		}
	}
	return out
}

// TestAnalyzeSketchesValidation mirrors AnalyzeContext's input checks.
func TestAnalyzeSketchesValidation(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	sk := sketch.FromProfile(tb.profileRuns(t, 1, 40)[0])
	if _, err := analysis.AnalyzeSketches(analysis.SketchInput{
		Debug: tb.prog.Debug, Schema: tb.sch, Normal: sk,
	}, analysis.DefaultParams()); err != analysis.ErrNoProfiles {
		t.Errorf("no buggy sketches: err = %v, want ErrNoProfiles", err)
	}
	if _, err := analysis.AnalyzeSketches(analysis.SketchInput{
		Debug: tb.prog.Debug, Schema: tb.sch, Buggy: []*sketch.Profile{sk},
	}, analysis.DefaultParams()); err != analysis.ErrNoProfiles {
		t.Errorf("no normal sketch: err = %v, want ErrNoProfiles", err)
	}
}

// TestSketchAnalysisDeterministicAcrossWorkers: the sketch path inherits
// the full path's worker-count independence.
func TestSketchAnalysisDeterministicAcrossWorkers(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	nsk := sketchesOf(tb.profileRuns(t, 3, 40))
	bsk := sketchesOf(tb.profileRuns(t, 3, 90))
	in := analysis.SketchInput{
		Debug:  tb.prog.Debug,
		Schema: tb.sch,
		Normal: nsk[0],
		Corpus: analysis.CorpusOfSketches(nsk, tb.prog.Debug),
		Buggy:  bsk,
	}
	var base string
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4; trial++ {
		p := analysis.DefaultParams()
		p.Workers = 1 + rng.Intn(8)
		rep, err := analysis.AnalyzeSketches(in, p)
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Render(0)
		if trial == 0 {
			base = r
		} else if r != base {
			t.Fatalf("workers=%d renders differently:\n%s\nvs\n%s", p.Workers, r, base)
		}
	}
}
