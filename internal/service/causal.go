package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"

	"vprof/internal/causal"
)

// CausalRequest asks for Coz-style virtual-speedup experiments on a
// registered workload: for each candidate function (or basic block), re-run
// the workload with that candidate's tick costs scaled down and measure the
// end-to-end runtime change.
type CausalRequest struct {
	// Workload names a registered workload; the resolver supplies its
	// runnable program.
	Workload string `json:"workload"`
	// Speedups lists virtual speedup percentages, each in (0,100); empty
	// uses the engine's default sweep.
	Speedups []float64 `json:"speedups,omitempty"`
	// Granularity is "func" (default) or "block".
	Granularity string `json:"granularity,omitempty"`
	// Funcs restricts (and force-admits) candidates by function name.
	Funcs []string `json:"funcs,omitempty"`
	// Top bounds the rendered table (default: server's Top).
	Top int `json:"top,omitempty"`
}

// CausalResponse carries the speedup curves, impact ranking, and rendered
// table for one causal-profiling run.
type CausalResponse struct {
	ReportID    string         `json:"report_id"`
	Workload    string         `json:"workload"`
	Granularity string         `json:"granularity"`
	Speedups    []float64      `json:"speedups"` // fractions, ascending
	Baseline    int64          `json:"baseline_wall_ticks"`
	Budget      int64          `json:"budget_ticks"`
	Capped      bool           `json:"capped"`
	Experiments int            `json:"experiments"`
	Curves      []causal.Curve `json:"curves"`
	Render      string         `json:"render"`
	// Cached is true when this reply was served from the memo cache.
	Cached bool `json:"cached"`
}

// Causal runs (or recalls) one causal-profiling sweep. Exported so the CLI
// and harness can drive it without HTTP plumbing.
func (s *Server) Causal(req CausalRequest) (*CausalResponse, int, error) {
	return s.CausalContext(context.Background(), req)
}

// CausalContext is Causal with cooperative cancellation: the context gates
// the worker-pool slot wait, the in-flight dedup wait, and every
// virtual-speedup experiment (the VM polls it at a tick-free alarm). A
// canceled sweep reports StatusClientClosedRequest and is not memoized.
//
// The tick VM is deterministic, so a workload's sweep is a pure function of
// the request; results are memoized by (workload, options) and repeated
// requests are cache hits.
func (s *Server) CausalContext(ctx context.Context, req CausalRequest) (*CausalResponse, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Value(admittedKey{}) == nil {
		done, err := s.beginRequest()
		if err != nil {
			return nil, statusFor(err), err
		}
		defer done()
	}
	if req.Workload == "" {
		return nil, http.StatusBadRequest, withCode(CodeBadRequest, fmt.Errorf("workload is required"))
	}
	gran, err := causal.ParseGranularity(req.Granularity)
	if err != nil {
		s.m.causal.With("error").Inc()
		return nil, http.StatusBadRequest, withCode(CodeBadRequest, err)
	}
	var speedups []float64
	for _, p := range req.Speedups {
		if p <= 0 || p >= 100 {
			s.m.causal.With("error").Inc()
			return nil, http.StatusBadRequest, withCode(CodeBadRequest,
				fmt.Errorf("speedup percentage %v outside (0,100)", p))
		}
		speedups = append(speedups, p/100)
	}
	top := req.Top
	if top <= 0 {
		top = s.top
	}

	key := causalMemoKey(req.Workload, gran, speedups, req.Funcs, top)
	return s.causalEP.run(ctx, req.Workload, key, func(ctx context.Context) (*CausalResponse, int, error) {
		return s.computeCausal(ctx, req.Workload, gran, speedups, req.Funcs, top, key)
	})
}

func (s *Server) computeCausal(ctx context.Context, workload string, gran causal.Granularity, speedups []float64, funcs []string, top int, key string) (*CausalResponse, int, error) {
	release, err := s.acquireCtx(ctx)
	if err != nil {
		return nil, statusFor(err), err
	}
	defer release()

	prog, cfg, err := s.resolver.Runnable(workload)
	if err != nil {
		return nil, http.StatusNotFound, withCode(CodeNotFound,
			fmt.Errorf("runnable workload %q: %w", workload, err))
	}
	rep, err := causal.Run(ctx, prog, cfg, causal.Options{
		Speedups:    speedups,
		Granularity: gran,
		Funcs:       funcs,
		Workers:     s.params.Workers,
	})
	if err != nil {
		if ctx.Err() != nil {
			cerr := cancelErr(ctx.Err())
			return nil, statusFor(cerr), cerr
		}
		return nil, http.StatusBadRequest, withCode(CodeBadRequest,
			fmt.Errorf("causal sweep of %q: %w", workload, err))
	}
	return &CausalResponse{
		ReportID:    "c-" + memoID(key),
		Workload:    workload,
		Granularity: string(rep.Granularity),
		Speedups:    rep.Speedups,
		Baseline:    rep.BaselineWall,
		Budget:      rep.Budget,
		Capped:      rep.Capped,
		Experiments: rep.Experiments,
		Curves:      rep.Curves,
		Render:      causal.Render(rep, top),
	}, http.StatusOK, nil
}

// causalMemoKey hashes the exact sweep inputs. Programs are resolved by
// name from static registries and the VM is deterministic, so the request
// fields fully determine the result.
func causalMemoKey(workload string, gran causal.Granularity, speedups []float64, funcs []string, top int) string {
	h := sha256.New()
	fmt.Fprintf(h, "causal\x00%s\x00%s\x00%d\x00", workload, gran, top)
	for _, p := range speedups {
		fmt.Fprintf(h, "s:%v\x00", p)
	}
	for _, fn := range funcs {
		fmt.Fprintf(h, "f:%s\x00", fn)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RootRank scans the impact ranking for fn; 0 means not ranked.
func (r *CausalResponse) RootRank(fn string) int {
	for i, c := range r.Curves {
		if c.Name == fn {
			return i + 1
		}
	}
	return 0
}
