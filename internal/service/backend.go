package service

import (
	"vprof/internal/analysis"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
	"vprof/internal/store"
)

// Backend is the storage surface the server runs over. *store.Store
// satisfies it natively (the single-node deployment); cluster.Router
// satisfies it structurally (the sharded, replicated deployment), which
// keeps the service package free of a cluster dependency.
type Backend interface {
	// PutBlob stores one encoded profile. Neither it nor anything it
	// starts may read blob after it returns: the server recycles the
	// push body then.
	PutBlob(workload string, label store.Label, run string, blob []byte) (*store.Entry, bool, error)
	Get(id string) (*sampler.Profile, error)
	GetSketch(id string) (*sketch.Profile, error)
	Lookup(workload string, label store.Label, run string) (*store.Entry, bool)
	Baselines(workload string) []*store.Entry
	Candidates(workload string) []*store.Entry
	Workloads() []store.WorkloadInfo
	CacheStats() store.CacheStats
	SketchStats() store.SketchStats
	// HealthDetail classifies the backend as "ok", "degraded" or
	// "unavailable" and names its checks: a single store reports whether
	// it is writable and whether it came up from a dirty shutdown; the
	// cluster router reports replica loss and dirty-recovered nodes as
	// degraded and a shard below write quorum as unavailable.
	HealthDetail() (status string, checks map[string]string)
	Flush() error
}

// CorpusBackend is an optional Backend refinement: a backend that can fold
// the baseline sketch corpus itself (the cluster router does it shard-local
// on each node and merges at the coordinator). When the fold fails the
// server falls back to fetching raw sketches one by one.
type CorpusBackend interface {
	Corpus(workload string, ids []string) (*analysis.Corpus, error)
}
