package service

// The diagnosis compute: instead of re-decoding every stored profile blob,
// the analysis reads the per-variable sketches the store folded at ingest
// (internal/sketch) plus one cached hist-discounter corpus per workload.
// Diagnosing a workload that just received one new candidate run touches
// only that run's sketch, the cached corpus and — for block localization —
// the run's own blob; the baseline blobs are never re-read, which the
// service tests assert via the store's decode-cache counters.

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"vprof/internal/analysis"
	"vprof/internal/debuginfo"
	"vprof/internal/store"
)

// corpusEntry caches one workload's hist-discounter corpus together with
// the exact baseline id set it was folded from.
type corpusEntry struct {
	ids    string // "\x00"-joined baseline blob ids, in corpus order
	corpus *analysis.Corpus
}

// corpusFor returns the workload's baseline corpus, rebuilding it only when
// the baseline id set changed since the cached fold. The corpus is treated
// as immutable once published; the sketch analysis only reads it.
func (s *Server) corpusFor(workload string, baselines []*store.Entry, dbg *debuginfo.Info) (*analysis.Corpus, []string, error) {
	ids := make([]string, 0, len(baselines))
	for _, e := range baselines {
		ids = append(ids, e.ID)
	}
	idKey := strings.Join(ids, "\x00")

	s.mu.Lock()
	if ce, ok := s.corpora[workload]; ok && ce.ids == idKey {
		s.mu.Unlock()
		return ce.corpus, ids, nil
	}
	s.mu.Unlock()

	// A cluster backend folds the corpus shard-local on each node and
	// merges the partials at the coordinator (Corpus.Merge is associative
	// and commutative, so the result is identical to the local fold). On
	// any failure, fall back to fetching raw sketches below.
	var corpus *analysis.Corpus
	if cb, ok := s.store.(CorpusBackend); ok {
		if folded, err := cb.Corpus(workload, ids); err == nil {
			corpus = folded
		} else {
			s.log.Warn("cluster corpus fold failed, folding locally", "workload", workload, "err", err)
		}
	}
	if corpus == nil {
		corpus = analysis.NewCorpus()
		for _, e := range baselines {
			sk, err := s.store.GetSketch(e.ID)
			if err != nil {
				return nil, nil, withCode(CodeInternal, err)
			}
			corpus.AddSketch(sk, dbg)
		}
	}
	s.mu.Lock()
	s.corpora[workload] = &corpusEntry{ids: idKey, corpus: corpus}
	s.mu.Unlock()
	return corpus, ids, nil
}

// compute runs one diagnosis over the store's persisted sketches and the
// workload's cached corpus. Unless sketches is set, it also decodes
// candidates[0] as the trail that localizes abnormal samples to basic
// blocks; sketch-mode reports carry no block column.
func (s *Server) compute(ctx context.Context, workload string, top int, key string, baselines, candidates []*store.Entry, sketches bool) (*DiagnoseResponse, int, error) {
	release, err := s.acquireCtx(ctx)
	if err != nil {
		return nil, statusFor(err), err
	}
	defer release()

	dbg, sch, err := s.resolver.Resolve(workload)
	if err != nil {
		return nil, http.StatusNotFound, withCode(CodeNotFound, fmt.Errorf("resolve workload %q: %w", workload, err))
	}
	if err := ctx.Err(); err != nil {
		cerr := cancelErr(err)
		return nil, statusFor(cerr), cerr
	}
	corpus, bIDs, err := s.corpusFor(workload, baselines, dbg)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	in := analysis.SketchInput{Debug: dbg, Schema: sch, Corpus: corpus}
	if in.Normal, err = s.store.GetSketch(baselines[0].ID); err != nil {
		return nil, http.StatusInternalServerError, withCode(CodeInternal, err)
	}
	cIDs := make([]string, 0, len(candidates))
	for _, e := range candidates {
		sk, err := s.store.GetSketch(e.ID)
		if err != nil {
			return nil, http.StatusInternalServerError, withCode(CodeInternal, err)
		}
		in.Buggy = append(in.Buggy, sk)
		cIDs = append(cIDs, e.ID)
	}
	if !sketches {
		if in.Trail, err = s.store.Get(candidates[0].ID); err != nil {
			return nil, http.StatusInternalServerError, withCode(CodeInternal, err)
		}
	}
	report, err := analysis.AnalyzeSketchesContext(ctx, in, s.params)
	if err != nil {
		if ctx.Err() != nil {
			cerr := cancelErr(ctx.Err())
			return nil, statusFor(cerr), cerr
		}
		return nil, http.StatusUnprocessableEntity, withCode(CodeAnalysisFailed, fmt.Errorf("analyze %q: %w", workload, err))
	}
	resp := diagnoseResponse(report, key, workload, top, bIDs, cIDs)
	resp.Sketches = sketches
	return resp, http.StatusOK, nil
}
