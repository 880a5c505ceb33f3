package vprof_test

// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus ablation benches for the
// design choices DESIGN.md calls out and micro-benchmarks of the hot paths.
//
// Quality metrics are attached with b.ReportMetric: "diagnosed" counts
// issues whose root cause ranks in the top five (the paper's headline
// metric), "rank" reports a specific workload's root-cause rank.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/baselines"
	"vprof/internal/bugs"
	"vprof/internal/harness"
	"vprof/internal/profilefmt"
	"vprof/internal/sampler"
	"vprof/internal/service"
	"vprof/internal/sketch"
	"vprof/internal/stats"
	"vprof/internal/store"
	"vprof/internal/vm"
)

// --- Tables ---

func BenchmarkTable1Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(harness.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3Diagnosis runs the full Table 3 protocol per workload
// (vProf 5+5 runs, hist-disc ablation, all five baselines), once with the
// sequential legacy path and once with an 8-way worker pool. The workers=8
// variant is what the parallel analysis engine buys on a multi-core runner;
// outputs are identical either way, so "rank" must match across variants.
func BenchmarkTable3Diagnosis(b *testing.B) {
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for _, w := range bugs.All() {
				w := w
				b.Run(w.ID, func(b *testing.B) {
					var lastRank int
					for i := 0; i < b.N; i++ {
						row, err := harness.DiagnoseWorkload(w, workers)
						if err != nil {
							b.Fatal(err)
						}
						lastRank = row.VProfRank
					}
					b.ReportMetric(float64(lastRank), "rank")
				})
			}
		})
	}
}

// BenchmarkParallelDiscount isolates the analysis stage: profiles are
// collected once outside the timed loop, then the variable discounter +
// cost attribution re-run per iteration at each pool size. This is the
// kernel the worker-pool fan-out targets.
func BenchmarkParallelDiscount(b *testing.B) {
	built := bugs.ByID("b1").MustBuild()
	normal, buggy := built.Profiles(built.NormalMeta, built.Meta, 0)
	in := analysis.Input{
		Debug:  built.Prog.Debug,
		Schema: built.Schema,
		Normal: normal,
		Buggy:  buggy,
	}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := analysis.DefaultParams()
			p.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := analysis.Analyze(in, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOneshot times the paper's one-shot diagnosis of one issue at one
// worker, the build excluded: bugs.Runs normal and buggy profiled runs
// through the shared loop, their merges, and the analysis (Built.Analyze).
// u3 records the most value samples of any issue; b8 runs three processes.
// Run with -benchmem: the recording buffers and merged samples dominate
// bytes/op.
func BenchmarkOneshot(b *testing.B) {
	for _, id := range []string{"b1", "u3", "b8"} {
		built := bugs.ByID(id).MustBuild()
		b.Run(id, func(b *testing.B) {
			p := analysis.DefaultParams()
			p.Workers = 1
			for i := 0; i < b.N; i++ {
				if _, err := built.Analyze(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable4Unresolved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cases, err := harness.Table4(0)
		if err != nil {
			b.Fatal(err)
		}
		found := 0
		for _, c := range cases {
			if c.RootFound {
				found++
			}
		}
		b.ReportMetric(float64(found), "diagnosed")
	}
}

func BenchmarkTable5Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table5(0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 15 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// --- Figures ---

func BenchmarkFigure6ValueSamples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := harness.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 2 {
			b.Fatalf("%d series", len(series))
		}
	}
}

func BenchmarkFigure7Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure7(1)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			if r.VProfRatio > worst {
				worst = r.VProfRatio
			}
		}
		b.ReportMetric(worst, "worst-overhead-ratio")
	}
}

func BenchmarkFigure8Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure8(0)
		if err != nil {
			b.Fatal(err)
		}
		// Report the default setting's score (DefaultDiscount 0.8).
		for _, p := range res.DefaultDiscount {
			if p.Setting > 0.79 && p.Setting < 0.81 {
				b.ReportMetric(float64(p.Diagnosed), "diagnosed")
			}
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// benchDiagnoseAll runs the vProf pipeline over all 15 workloads with the
// given parameters and sampler options, reporting the top-5 count.
func benchDiagnoseAll(b *testing.B, params analysis.Params, opts sampler.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		diagnosed, classified := 0, 0
		for _, w := range bugs.All() {
			built, err := w.Build()
			if err != nil {
				b.Fatal(err)
			}
			in := analysis.Input{Debug: built.Prog.Debug, Schema: built.Schema}
			for run := 0; run < 5; run++ {
				nres := sampler.ProfileRun(built.NormalProg, built.NormalMeta, w.NormalConfig(run), opts)
				in.Normal = append(in.Normal, sampler.MergeProfiles(nres.Profiles))
				nres.Recycle()
				bres := sampler.ProfileRun(built.Prog, built.Meta, w.BuggyConfig(run), opts)
				in.Buggy = append(in.Buggy, sampler.MergeProfiles(bres.Profiles))
				bres.Recycle()
			}
			rep, err := analysis.Analyze(in, params)
			if err != nil {
				b.Fatal(err)
			}
			if r := rep.Rank(w.RootFunc); r >= 1 && r <= 5 {
				diagnosed++
			}
			if fr := rep.Func(w.RootFunc); fr != nil && w.PaperClassified && fr.Pattern == w.Pattern {
				classified++
			}
		}
		b.ReportMetric(float64(diagnosed), "diagnosed")
		b.ReportMetric(float64(classified), "classified")
	}
}

// BenchmarkAblationUnwindDepth varies the virtual-stack-unwinding bound
// (paper default 3; -1 disables). Shallower unwinding loses the caller value
// samples that promote root causes.
func BenchmarkAblationUnwindDepth(b *testing.B) {
	for _, depth := range []int{-1, 1, 3, 5} {
		depth := depth
		name := "disabled"
		switch depth {
		case 1:
			name = "depth1"
		case 3:
			name = "depth3"
		case 5:
			name = "depth5"
		}
		b.Run(name, func(b *testing.B) {
			benchDiagnoseAll(b, analysis.DefaultParams(),
				sampler.Options{Interval: bugs.DefaultInterval, UnwindDepth: depth})
		})
	}
}

// BenchmarkAblationVarCost disables the variable-based execution cost
// (paper §5.1's caller cost inheritance).
func BenchmarkAblationVarCost(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			p := analysis.DefaultParams()
			p.DisableVarCost = disable
			benchDiagnoseAll(b, p, sampler.Options{Interval: bugs.DefaultInterval})
		})
	}
}

// BenchmarkAblationDimensions restricts the discounter to the value
// dimension only (the paper motivates deltas and processing costs).
func BenchmarkAblationDimensions(b *testing.B) {
	for _, valueOnly := range []bool{false, true} {
		valueOnly := valueOnly
		name := "all3"
		if valueOnly {
			name = "valueOnly"
		}
		b.Run(name, func(b *testing.B) {
			p := analysis.DefaultParams()
			p.DimensionsValueOnly = valueOnly
			benchDiagnoseAll(b, p, sampler.Options{Interval: bugs.DefaultInterval})
		})
	}
}

// BenchmarkAblationHistDiscounter disables the hist-discounter (Table 3's
// comparison showed it matters for functions without monitored variables).
func BenchmarkAblationHistDiscounter(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			p := analysis.DefaultParams()
			p.DisableHistDiscounter = disable
			benchDiagnoseAll(b, p, sampler.Options{Interval: bugs.DefaultInterval})
		})
	}
}

// BenchmarkAblationInterval varies the sampling interval: denser sampling
// costs more but gathers more value samples.
func BenchmarkAblationInterval(b *testing.B) {
	for _, interval := range []int64{31, 97, 331, 997} {
		interval := interval
		b.Run(fmt.Sprintf("every%d", interval), func(b *testing.B) {
			benchDiagnoseAll(b, analysis.DefaultParams(), sampler.Options{Interval: interval})
		})
	}
}

// --- Baseline tool benches (cost of each Table 2 tool on one workload) ---

func BenchmarkBaselines(b *testing.B) {
	built, err := bugs.ByID("b4").Build()
	if err != nil {
		b.Fatal(err)
	}
	tools := []struct {
		name string
		run  func(*baselines.Target) *baselines.Result
	}{
		{"gprof", baselines.Gprof},
		{"perf", baselines.Perf},
		{"perf-PT", baselines.PerfPT},
		{"COZ", baselines.Coz},
		{"stat-debug", baselines.StatDebug},
	}
	for _, tool := range tools {
		tool := tool
		b.Run(tool.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := tool.run(built.Target()); res == nil {
					b.Fatal("nil result")
				}
			}
		})
	}
}

// --- Micro-benchmarks of the hot paths ---

// profiledCases are the runs the profile-path benchmarks use. b1 is the
// normal-input run of the buggy build; u3-buggy is the largest
// single-process profile (86k samples); b8-buggy merges 3 processes.
var profiledCases = []struct {
	name, id string
	buggy    bool
}{{"b1", "b1", false}, {"u3-buggy", "u3", true}, {"b8-buggy", "b8", true}}

// BenchmarkProfiledExecution times one profiled execution, the merge of
// its per-process profiles and their Recycle, the profile path of every
// diagnosis run. Each named case profiles one program over and over, so
// its recording buffers always fit; mixed profiles the three in turn and
// drains the pools every mixedGCEvery ops, as the collections of a long
// diagnosis drain them, so a draw can be empty or smaller than what it
// records.
func BenchmarkProfiledExecution(b *testing.B) {
	type run struct {
		built *bugs.Built
		cfg   vm.Config
	}
	var runs []run
	for _, c := range profiledCases {
		built, err := bugs.ByID(c.id).Build()
		if err != nil {
			b.Fatal(err)
		}
		r := run{built, built.W.NormalConfig(0)}
		if c.buggy {
			r.cfg = built.W.BuggyConfig(0)
		}
		runs = append(runs, r)
	}
	profile := func(b *testing.B, r run) {
		res := sampler.ProfileRun(r.built.Prog, r.built.Meta, r.cfg,
			sampler.Options{Interval: bugs.DefaultInterval})
		if len(sampler.MergeProfiles(res.Profiles).Samples) == 0 {
			b.Fatal("no value samples")
		}
		res.Recycle()
	}
	for i, c := range profiledCases {
		r := runs[i]
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				profile(b, r)
			}
		})
	}
	const mixedGCEvery = 4
	b.Run("mixed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%mixedGCEvery == 0 {
				b.StopTimer()
				runtime.GC()
				runtime.GC()
				b.StartTimer()
			}
			profile(b, runs[i%len(runs)])
		}
	})
}

// caseProfile profiles run 0 of a profiledCases entry, merges its
// processes and recycles the run.
func caseProfile(b *testing.B, id string, buggy bool) *sampler.Profile {
	built, err := bugs.ByID(id).Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := built.W.NormalConfig(0)
	if buggy {
		cfg = built.W.BuggyConfig(0)
	}
	res := sampler.ProfileRun(built.Prog, built.Meta, cfg, sampler.Options{Interval: bugs.DefaultInterval})
	defer res.Recycle()
	return sampler.MergeProfiles(res.Profiles)
}

// benchOp is one timed operation of a layer benchmark.
type benchOp struct {
	name string
	run  func() error
}

// runOps times each op as the sub-benchmark prefix/name.
func runOps(b *testing.B, prefix string, ops []benchOp) {
	for _, op := range ops {
		b.Run(prefix+"/"+op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodec times the bundle codec on the merged profiles of
// profiledCases: Marshal encodes the profile as a bundle, Unmarshal
// decodes and validates it. Every push pays both once per replica.
func BenchmarkCodec(b *testing.B) {
	for _, c := range profiledCases {
		p := caseProfile(b, c.id, c.buggy)
		blob, err := profilefmt.Marshal(p)
		if err != nil {
			b.Fatal(err)
		}
		runOps(b, c.name, []benchOp{
			{"Marshal", func() error { _, err := profilefmt.Marshal(p); return err }},
			{"Unmarshal", func() error { _, err := profilefmt.Unmarshal(blob); return err }},
		})
	}
}

// BenchmarkSketch times the sketch layer on the merged profiles of
// profiledCases: FromProfile folds the profile, MarshalSketch and
// UnmarshalSketch run the sketch codec, and Merge16 folds 16 copies of the
// sketch into one, the shape of a corpus merge. Every push pays the fold
// and MarshalSketch once per replica.
func BenchmarkSketch(b *testing.B) {
	for _, c := range profiledCases {
		p := caseProfile(b, c.id, c.buggy)
		sk := sketch.FromProfile(p)
		frame, err := profilefmt.MarshalSketch(sk)
		if err != nil {
			b.Fatal(err)
		}
		runOps(b, c.name, []benchOp{
			{"FromProfile", func() error { sketch.FromProfile(p); return nil }},
			{"MarshalSketch", func() error { _, err := profilefmt.MarshalSketch(sk); return err }},
			{"UnmarshalSketch", func() error { _, err := profilefmt.UnmarshalSketch(frame); return err }},
			{"Merge16", func() error {
				out := sk.Clone()
				for i := 1; i < 16; i++ {
					out.Merge(sk)
				}
				return nil
			}},
		})
	}
}

// BenchmarkPush times one push of merged b8 normal run 0, a 142 KiB
// bundle, through the service's ingest handler: body read, decode, content
// hash, segment frame and manifest record, with the sketch fold and frame
// beside them, finishing after the ack. nosync opens the store without
// fsync, so it times the push's CPU work; fsync opens it as shipped, so it
// times what a push's ack waits for. In both every push carries new bytes,
// so each stores a fresh blob; the store's Close, which waits for the last
// folds, is inside the timing, and B/op is what one push allocates. repush (store as shipped) sends the
// same bytes under the same run every time, as a client retrying after a
// lost ack does: each push is a dedup that writes nothing. The stage
// cases time PutBlob's CPU stages one at a time on the same bundle: hash,
// decode, and fold (sketch fold and frame encode). internal/store's
// BenchmarkAppendFrame times the segment append at this size.
func BenchmarkPush(b *testing.B) {
	p := caseProfile(b, "b8", false)
	for _, c := range []struct {
		name           string
		noSync, repush bool
	}{{"nosync", true, false}, {"fsync", false, false}, {"repush", false, true}} {
		b.Run(c.name, func(b *testing.B) { benchPush(b, p, store.Options{NoSync: c.noSync}, c.repush) })
	}
	blob, err := profilefmt.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	runOps(b, "stage", []benchOp{
		{"hash", func() error { hashSink = sha256.Sum256(blob); return nil }},
		{"decode", func() error { _, err := profilefmt.Unmarshal(blob); return err }},
		{"fold", func() error { _, err := profilefmt.MarshalSketch(sketch.FromProfile(p)); return err }},
	})
}

// hashSink keeps the stage/hash sum live, so the compiler cannot drop it.
var hashSink [sha256.Size]byte

// benchPush pushes p into a store opened with opts through the service's
// ingest handler: with new bytes under a new run each time, or with
// repush the same bytes under run 0, stored once before the timer starts.
func benchPush(b *testing.B, p *sampler.Profile, opts store.Options, repush bool) {
	st, err := store.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv, err := service.New(service.Config{Store: st, Resolver: service.NewBugsResolver()})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	same, err := profilefmt.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	if repush {
		postPush(b, h, 0, same)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if repush {
			postPush(b, h, 0, same)
			continue
		}
		b.StopTimer()
		q := *p
		q.TotalTicks += int64(i)
		blob, err := profilefmt.Marshal(&q)
		if err != nil {
			b.Fatal(err)
		}
		postPush(b, h, i, blob)
	}
}

// postPush posts blob as run i of workload b8 to h; the request is built
// outside the timer.
func postPush(b *testing.B, h http.Handler, i int, blob []byte) {
	b.StopTimer()
	req := httptest.NewRequest(http.MethodPost,
		fmt.Sprintf("/v1/profiles?workload=b8&label=normal&run=%d", i), bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	b.StartTimer()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("push %d: HTTP %d: %s", i, rec.Code, rec.Body)
	}
}

// BenchmarkProfilerInit times sampler.New on b1. New also draws a
// recording buffer with room for the largest recording the process has
// seen; nothing here returns it to the pool, so after the profiling
// benchmarks have run u3 each op allocates that buffer too. Table 5's
// InitDuration excludes the draw.
func BenchmarkProfilerInit(b *testing.B) {
	built, err := bugs.ByID("b1").Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := sampler.New(built.Prog, built.Meta, sampler.Options{})
		if p.NumVarNodes() == 0 {
			b.Fatal("no variable nodes")
		}
	}
}

// BenchmarkADKSample runs two-sample tests on histograms at growing pooled
// sizes N, as the discounter does. The merge-join walks distinct values, at
// most 37 and 41 per side at every size here, so what grows is the variance's
// harmonic terms h and g, linear in N (about 40x from N=1k to N=40k); a term
// quadratic in N would show as a ~1600x jump.
func BenchmarkADKSample(b *testing.B) {
	for _, pooled := range []int{1000, 10000, 40000} {
		x := make([]float64, pooled/2)
		y := make([]float64, pooled/2)
		for i := range x {
			x[i] = float64(i % 37)
			y[i] = float64((i*7 + 3) % 41)
		}
		hx, hy := sketch.HistOf(x), sketch.HistOf(y)
		b.Run(fmt.Sprintf("N=%d", pooled), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stats.ADKSampleHist(hx, hy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHellinger compares two 2000-observation histograms whose 97 + 89
// distinct values take the binned path.
func BenchmarkHellinger(b *testing.B) {
	x := make([]float64, 2000)
	y := make([]float64, 2000)
	for i := range x {
		x[i] = float64(i % 97)
		y[i] = float64((i * 13) % 89)
	}
	hx, hy := sketch.HistOf(x), sketch.HistOf(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Hellinger(hx, hy)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	built, err := bugs.ByID("b1").Build()
	if err != nil {
		b.Fatal(err)
	}
	normal, buggy := built.Profiles(built.NormalMeta, built.Meta, 0)
	in := analysis.Input{Debug: built.Prog.Debug, Schema: built.Schema, Normal: normal, Buggy: buggy}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(in, analysis.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}
