package analysis

import (
	"context"
	"sort"

	"vprof/internal/debuginfo"
	"vprof/internal/parallel"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

// pcCostApp returns the gprof-view PC cost per *application* function:
// library-function PCs are excluded (gprof records no samples outside the
// profiled executable, and vProf inherits this) as are synthetic functions.
func pcCostApp(s *sketch.Profile, info *debuginfo.Info) map[string]float64 {
	out := map[string]float64{}
	for _, e := range s.Hist {
		fn := info.FuncAt(int(e.Key))
		if fn == nil || fn.Library || isSynthetic(fn.Name) {
			continue
		}
		out[fn.Name] += float64(e.Count * s.Interval)
	}
	return out
}

func isSynthetic(name string) bool {
	return len(name) >= 2 && name[0] == '_' && name[1] == '_'
}

// histDiscounter computes discount ratios by cross-comparing a function's
// cost rank between every (buggy, normal) run pair (paper §5.1): with n
// buggy and m normal runs, r = h/c where h counts comparisons in which the
// function ranks higher (more costly) in the normal run, and c is the number
// of comparisons in which the function appeared at all. The normal side is
// the corpus rank multisets, so the pairs are counted, not enumerated: for
// a function ranked bRank in a buggy run, the normal runs that outrank it
// are the corpus entries < bRank (one binary search). Buggy rankings and
// per-function verdicts fan out over the worker pool; the ratios are exact
// integer counts, making the result identical for any worker count.
func histDiscounter(ctx context.Context, p Params, corpus *Corpus, buggy []*sketch.Profile, info *debuginfo.Info) (map[string]float64, error) {
	workers := parallel.Workers(p.Workers)
	buggyRanks, err := parallel.MapCtx(ctx, workers, len(buggy), func(i int) map[string]int {
		return stats.Ranks(pcCostApp(buggy[i], info))
	})
	if err != nil {
		return nil, err
	}

	funcs := map[string]bool{}
	for f := range corpus.Ranks {
		funcs[f] = true
	}
	for _, r := range buggyRanks {
		for f := range r {
			funcs[f] = true
		}
	}
	names := make([]string, 0, len(funcs))
	for f := range funcs {
		names = append(names, f)
	}
	sort.Strings(names)

	type verdict struct {
		r  float64
		ok bool
	}
	verdicts, err := parallel.MapCtx(ctx, workers, len(names), func(i int) verdict {
		f := names[i]
		nList := corpus.Ranks[f]
		h, c := 0, 0
		for _, br := range buggyRanks {
			if bRank, bOK := br[f]; bOK {
				// Every normal run pairs up; the ones where f ranked
				// more costly (smaller rank) add to h, absences add
				// nothing.
				c += corpus.Runs
				h += sort.SearchInts(nList, bRank)
			} else {
				// Only normal runs where f appeared pair up, each as
				// "costlier in normal".
				c += len(nList)
				h += len(nList)
			}
		}
		if c == 0 {
			return verdict{}
		}
		r := float64(h) / float64(c)
		if r < p.ValidDiscount {
			r = 0
		}
		return verdict{r, true}
	})
	if err != nil {
		return nil, err
	}

	out := make(map[string]float64, len(names))
	for i, f := range names {
		if verdicts[i].ok {
			out[f] = verdicts[i].r
		}
	}
	return out, nil
}
