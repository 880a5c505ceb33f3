package analysis

import (
	"sort"

	"vprof/internal/debuginfo"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

// Corpus summarizes a baseline (normal) run set for the hist-discounter:
// per function, the sorted multiset of its per-run cost ranks. Adding a run
// is O(functions); merging two corpora is associative and commutative, so a
// shard can answer with a partial corpus and the coordinator folds them.
type Corpus struct {
	// Runs is the number of runs folded in.
	Runs int
	// Ranks maps a function name to its dense cost rank in each run where
	// it appeared, ascending.
	Ranks map[string][]int
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus { return &Corpus{Ranks: map[string][]int{}} }

// AddSketch folds one run's sketch into the corpus.
func (c *Corpus) AddSketch(s *sketch.Profile, info *debuginfo.Info) {
	c.AddRanks(stats.Ranks(pcCostApp(s, info)))
}

// AddRanks folds one run's per-function cost ranking into the corpus.
func (c *Corpus) AddRanks(ranks map[string]int) {
	c.Runs++
	for f, r := range ranks {
		lst := c.Ranks[f]
		i := sort.SearchInts(lst, r)
		lst = append(lst, 0)
		copy(lst[i+1:], lst[i:])
		lst[i] = r
		c.Ranks[f] = lst
	}
}

// Merge folds other into c (associative and commutative).
func (c *Corpus) Merge(other *Corpus) {
	c.Runs += other.Runs
	for f, rs := range other.Ranks {
		merged := append(append([]int(nil), c.Ranks[f]...), rs...)
		sort.Ints(merged)
		c.Ranks[f] = merged
	}
}

// Clone returns a deep copy.
func (c *Corpus) Clone() *Corpus {
	out := &Corpus{Runs: c.Runs, Ranks: make(map[string][]int, len(c.Ranks))}
	for f, rs := range c.Ranks {
		out.Ranks[f] = append([]int(nil), rs...)
	}
	return out
}

// CorpusOfSketches builds a corpus from a baseline run set.
func CorpusOfSketches(sketches []*sketch.Profile, info *debuginfo.Info) *Corpus {
	c := NewCorpus()
	for _, s := range sketches {
		c.AddSketch(s, info)
	}
	return c
}
