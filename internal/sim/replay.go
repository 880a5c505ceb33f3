package sim

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/harness"
	"vprof/internal/profilefmt"
	"vprof/internal/sketch"
	"vprof/internal/store"
)

// replayTop bounds diagnosis reports deep enough to cover every function of
// every workload, so the service/offline comparison sees complete rankings.
const replayTop = 200

// replayIssues are the replayed workloads: the 15 resolved issues, then
// the 3 unresolved ones.
var replayIssues = append(bugs.All(), bugs.UnresolvedIssues()...)

// replayData is one issue profiled once per process: the blobs every
// deployment is pushed, and the renders of the offline full and sketch
// analyses of the same profiles.
type replayData struct {
	w                      *bugs.Workload
	pushes                 []blobPush // harness.Runs normal runs, then as many buggy ones
	offline, offlineSketch string
	offlineRank            int
}

// blobPush is one run an agent pushes.
type blobPush struct {
	k    key
	blob []byte
}

var (
	replayMu    sync.Mutex
	replayCache = map[string]*replayData{}
)

// replayWorkload profiles issue id and computes its offline reports, once
// per process.
func replayWorkload(id string) (*replayData, error) {
	replayMu.Lock()
	defer replayMu.Unlock()
	if d, ok := replayCache[id]; ok {
		return d, nil
	}
	w := bugs.ByID(id)
	if w == nil {
		return nil, fmt.Errorf("no bug workload %q", id)
	}
	b, err := w.Build()
	if err != nil {
		return nil, err
	}
	d := &replayData{w: w}
	in := analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema}
	skIn := analysis.SketchInput{Debug: b.Prog.Debug, Schema: b.Schema, Corpus: analysis.NewCorpus()}
	var buggy []blobPush
	for i := 0; i < harness.Runs; i++ {
		normal, _ := b.ProfileNormal(i)
		bug, _ := b.ProfileBuggy(i)
		in.Normal, in.Buggy = append(in.Normal, normal), append(in.Buggy, bug)
		sk := sketch.FromProfile(normal)
		if i == 0 {
			skIn.Normal = sk
		}
		skIn.Corpus.AddSketch(sk, b.Prog.Debug)
		skIn.Buggy = append(skIn.Buggy, sketch.FromProfile(bug))
		nb, err1 := profilefmt.Marshal(normal)
		bb, err2 := profilefmt.Marshal(bug)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s run %d: %v %v", id, i, err1, err2)
		}
		// Exact-size copies: Marshal's buffer can hold twice the bytes, and
		// every blob stays cached for the whole process.
		d.pushes = append(d.pushes, blobPush{key{id, store.LabelNormal, fmt.Sprint(i)}, bytes.Clone(nb)})
		buggy = append(buggy, blobPush{key{id, store.LabelCandidate, fmt.Sprint(i)}, bytes.Clone(bb)})
	}
	d.pushes = append(d.pushes, buggy...)
	offline, err := analysis.Analyze(in, analysis.DefaultParams())
	if err != nil {
		return nil, err
	}
	offSk, err := analysis.AnalyzeSketches(skIn, analysis.DefaultParams())
	if err != nil {
		return nil, err
	}
	d.offline, d.offlineSketch, d.offlineRank = offline.Render(replayTop), offSk.Render(replayTop), offline.Rank(w.RootFunc)
	replayCache[id] = d
	return d, nil
}

// replayRow is one issue's outcome of the replay: the root cause's rank
// offline and served (0 = not ranked), whether the served report equals
// the offline render byte for byte, and whether re-diagnosing the
// unchanged issue came from the memo.
type replayRow struct {
	ID, RootFunc              string
	OfflineRank, ServiceRank  int
	RenderMatch, CachedSecond bool
}

// renderReplay formats replay rows for the experiment log.
func renderReplay(rows []replayRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Continuous-mode replay: service diagnosis vs offline pipeline.\n\n")
	fmt.Fprintf(&sb, "%-4s %-30s %-9s %-9s %-6s %-7s\n", "ID", "root cause", "offline", "service", "match", "cached")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-4s %-30s %-9s %-9s %-6v %-7v\n", r.ID, r.RootFunc,
			harness.RankString(r.OfflineRank), harness.RankString(r.ServiceRank), r.RenderMatch, r.CachedSecond)
	}
	return sb.String()
}
