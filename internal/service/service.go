// Package service is the continuous-profiling daemon: an HTTP front end
// over the profile store that accepts concurrent profile uploads and serves
// differential diagnoses of candidate runs against each workload's stored
// baseline corpus, using the same calibrated ranking + root-cause classifier
// as the offline pipeline (internal/analysis).
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/profiles?workload=w&label=normal|candidate&run=id
//	     body: one profilefmt bundle (binary). Validated, deduplicated.
//	GET  /v1/workloads
//	POST /v1/diagnose        {"workload": w, "candidates": ["0"], "top": 10}
//	POST /v1/check           {"workload": w} or {"source": text, "path": p}
//	POST /v1/causal          {"workload": w, "speedups": [10,50,95], "granularity": "func"}
//	GET  /v1/report/{id}
//	GET  /v1/stats
//
// Ingestion and diagnosis share a bounded worker pool, so N clients can
// push concurrently without unbounded decode/analysis work in flight.
// Diagnosis results are memoized by the content hashes of the exact
// (candidate-set, baseline-set) pair, so re-diagnosing an unchanged
// workload is a cache hit (observable via the stats counters).
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vprof/internal/analysis"
	"vprof/internal/obs"
	"vprof/internal/store"
)

// MaxUploadBytes bounds one profile upload.
const MaxUploadBytes = 64 << 20

// Config assembles a server.
type Config struct {
	// Store is the single-node backend. Exactly one of Store and Backend
	// must be set.
	Store *store.Store
	// Backend is a pluggable storage tier (the cluster router). When set it
	// takes precedence over Store.
	Backend  Backend
	Resolver Resolver
	// Workers bounds concurrently executing ingest/diagnose work
	// (default 4).
	Workers int
	// AnalysisWorkers bounds the per-diagnosis analysis worker pool
	// (internal/parallel): 0 resolves a default via VPROF_WORKERS then
	// GOMAXPROCS, 1 forces the sequential legacy path. Reports are
	// byte-for-byte identical for every value.
	AnalysisWorkers int
	// Params are the analysis tunables (zero value → DefaultParams).
	Params *analysis.Params
	// Top is the default row count of rendered reports (default 10).
	Top int
	// Metrics receives the service's instrumentation and backs GET
	// /metrics. Nil allocates a private registry, so /metrics always
	// works; pass a shared registry to combine with store/sampler/pool
	// series.
	Metrics *obs.Registry
	// Logger receives structured request/diagnosis logs (nil = discard).
	Logger *slog.Logger
	// RequestTimeout bounds each request's total handling time, including
	// its wait for a worker slot (0 = no per-request deadline).
	RequestTimeout time.Duration
	// MaxQueue bounds how many requests may wait for a worker slot; past
	// that the service sheds load with 429 + Retry-After instead of
	// building an unbounded backlog (default 64).
	MaxQueue int
}

// Machine-readable error codes carried in the JSON error body alongside the
// message; the client maps them to typed sentinel errors.
const (
	CodeBadRequest      = "bad_request"
	CodeInvalidBundle   = "invalid_bundle"
	CodeNotFound        = "not_found"
	CodeBaselineMissing = "baseline_missing"
	CodeNoCandidates    = "no_candidates"
	CodeAnalysisFailed  = "analysis_failed"
	CodeCanceled        = "canceled"
	CodeInternal        = "internal"
	CodeOverloaded      = "overloaded"  // admission queue full: retry later
	CodeTimeout         = "timeout"     // per-request deadline exceeded
	CodeUnavailable     = "unavailable" // draining for shutdown
)

// retryAfterSeconds is the Retry-After hint sent with 429/503 responses;
// the client's backoff honors it.
const retryAfterSeconds = "1"

// StatusClientClosedRequest reports a diagnosis aborted because its client
// disconnected (nginx's non-standard 499; never actually written to the
// closed connection, but visible in Diagnose's status return and metrics).
const StatusClientClosedRequest = 499

// codedError pairs an error with its machine-readable code so HTTP handlers
// can emit both without string matching.
type codedError struct {
	code string
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

func withCode(code string, err error) error {
	return &codedError{code: code, err: err}
}

// errCode extracts the machine-readable code (CodeInternal when untyped).
func errCode(err error) string {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	return CodeInternal
}

// serviceMetrics holds the request-path instrumentation handles (all
// nil-safe obs metrics).
type serviceMetrics struct {
	http        *obs.HTTPMetrics
	duration    *obs.Histogram // diagnose wall time, computed only
	diagnoses   *obs.CounterVec
	memoHits    *obs.Counter
	poolSlots   *obs.Gauge
	poolInUse   *obs.Gauge
	poolWaiting *obs.Gauge
	panics      *obs.Counter
	shed        *obs.Counter

	causal            *obs.CounterVec
	causalExperiments *obs.Counter
	causalDuration    *obs.Histogram
	causalMemoHits    *obs.Counter
}

func newServiceMetrics(reg *obs.Registry) serviceMetrics {
	return serviceMetrics{
		http: obs.NewHTTPMetrics(reg, "vprof"),
		duration: reg.Histogram("vprof_diagnose_duration_seconds",
			"Wall time of computed (non-memoized) diagnoses.", obs.DefBuckets),
		diagnoses: reg.CounterVec("vprof_diagnose_requests_total",
			"Diagnose requests, by outcome.", "outcome"),
		memoHits: reg.Counter("vprof_diagnose_memo_hits_total",
			"Diagnose requests served from the memo cache."),
		poolSlots: reg.Gauge("vprof_pool_slots",
			"Capacity of the ingest/diagnose worker pool."),
		poolInUse: reg.Gauge("vprof_pool_in_use",
			"Worker-pool slots currently held."),
		poolWaiting: reg.Gauge("vprof_pool_queue_depth",
			"Requests blocked waiting for a worker-pool slot."),
		panics: reg.Counter("vprof_panics_total",
			"Handler panics recovered by the HTTP middleware (served as 500s)."),
		shed: reg.Counter("vprof_shed_total",
			"Requests shed with 429 because the admission queue was full."),
		causal: reg.CounterVec("vprof_causal_requests_total",
			"Causal-profiling requests, by outcome.", "outcome"),
		causalExperiments: reg.Counter("vprof_causal_experiments_total",
			"Virtual-speedup experiments executed by computed causal sweeps."),
		causalDuration: reg.Histogram("vprof_causal_duration_seconds",
			"Wall time of computed (non-memoized) causal sweeps.", obs.DefBuckets),
		causalMemoHits: reg.Counter("vprof_causal_memo_hits_total",
			"Causal requests served from the memo cache."),
	}
}

// Server implements the HTTP API. Create with New.
type Server struct {
	store      Backend
	resolver   Resolver
	params     analysis.Params
	top        int
	sem        chan struct{}
	maxQueue   int
	reqTimeout time.Duration
	reg        *obs.Registry
	m          serviceMetrics
	log        *slog.Logger

	queued atomic.Int64 // requests waiting for a worker slot

	drainMu  sync.Mutex
	draining bool
	inFlight sync.WaitGroup // admitted requests not yet finished

	// mu guards reports, the endpoints' memo/inflight maps, and corpora.
	mu      sync.Mutex
	reports map[string]*DiagnoseResponse // report id → result
	// corpora caches one hist-discounter corpus per workload, keyed by the
	// exact baseline id set; an unchanged baseline set re-uses it, so an
	// incremental diagnosis folds only the new candidates' sketches.
	corpora map[string]*corpusEntry

	diagEP   *endpoint[DiagnoseResponse]
	causalEP *endpoint[CausalResponse]

	ingested  atomic.Int64
	deduped   atomic.Int64
	rejected  atomic.Int64
	diagnoses atomic.Int64
	memoHits  atomic.Int64
}

// New builds a server over an open store (or any other Backend).
func New(cfg Config) (*Server, error) {
	backend := cfg.Backend
	if backend == nil && cfg.Store != nil {
		backend = cfg.Store
	}
	if backend == nil {
		return nil, fmt.Errorf("service: Config.Store or Config.Backend is required")
	}
	if cfg.Resolver == nil {
		return nil, fmt.Errorf("service: Config.Resolver is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	top := cfg.Top
	if top <= 0 {
		top = 10
	}
	params := analysis.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	if cfg.AnalysisWorkers != 0 {
		params.Workers = cfg.AnalysisWorkers
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Nop()
	}
	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 64
	}
	s := &Server{
		store:      backend,
		resolver:   cfg.Resolver,
		params:     params,
		top:        top,
		sem:        make(chan struct{}, workers),
		maxQueue:   maxQueue,
		reqTimeout: cfg.RequestTimeout,
		reg:        reg,
		m:          newServiceMetrics(reg),
		log:        logger,
		reports:    map[string]*DiagnoseResponse{},
		corpora:    map[string]*corpusEntry{},
	}
	s.m.poolSlots.Set(float64(workers))

	s.diagEP = newEndpoint[DiagnoseResponse](s, "diagnose", s.m.diagnoses, s.m.memoHits, s.m.duration)
	s.diagEP.onHit = func(resp *DiagnoseResponse) *DiagnoseResponse {
		s.memoHits.Add(1)
		return s.cachedCopy(resp)
	}
	s.diagEP.onStore = func(resp *DiagnoseResponse) { s.reports[resp.ReportID] = resp }
	s.diagEP.finish = func(resp *DiagnoseResponse) (*DiagnoseResponse, []any) {
		s.diagnoses.Add(1)
		out := *resp
		out.MemoHits = s.memoHits.Load()
		return &out, []any{"report", resp.ReportID,
			"baselines", len(resp.Baselines), "candidates", len(resp.Candidates)}
	}

	s.causalEP = newEndpoint[CausalResponse](s, "causal", s.m.causal, s.m.causalMemoHits, s.m.causalDuration)
	s.causalEP.onHit = func(resp *CausalResponse) *CausalResponse {
		out := *resp
		out.Cached = true
		return &out
	}
	s.causalEP.finish = func(resp *CausalResponse) (*CausalResponse, []any) {
		s.m.causalExperiments.Add(float64(resp.Experiments))
		out := *resp
		return &out, []any{"report", resp.ReportID, "granularity", resp.Granularity,
			"experiments", resp.Experiments, "capped", resp.Capped}
	}
	return s, nil
}

// Metrics returns the server's registry (the one behind GET /metrics).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the routed HTTP handler. Every /v1 route is wrapped in
// the HTTP metrics middleware plus the admission guard (drain check +
// per-request timeout); /metrics and /healthz are left bare so scraping
// does not perturb the request-path series and keeps working while the
// server drains. The whole mux sits behind panic recovery, so a handler
// bug costs one 500 (and a vprof_panics_total tick), not the process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, s.m.http.Wrap(label, s.guard(h)))
	}
	route("POST /v1/profiles", "/v1/profiles", s.handleIngest)
	route("POST /v1/profiles:batch", "/v1/profiles:batch", s.handleBatch)
	route("GET /v1/workloads", "/v1/workloads", s.handleWorkloads)
	// r.Context() ends when the client disconnects, so an abandoned
	// request aborts its analysis fan-out and releases its pool slot.
	route("POST /v1/diagnose", "/v1/diagnose", handleJSON(func(ctx context.Context, req DiagnoseRequest) (any, int, error) {
		return s.DiagnoseContext(ctx, req)
	}))
	route("POST /v1/check", "/v1/check", handleJSON(func(ctx context.Context, req CheckRequest) (any, int, error) {
		return s.Check(req)
	}))
	route("POST /v1/causal", "/v1/causal", handleJSON(func(ctx context.Context, req CausalRequest) (any, int, error) {
		return s.CausalContext(ctx, req)
	}))
	route("GET /v1/report/{id}", "/v1/report", s.handleReport)
	route("GET /v1/stats", "/v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.recoverPanics(mux)
}

// admittedKey marks a context that already passed the admission guard, so
// DiagnoseContext does not double-register the request for draining.
type admittedKey struct{}

// guard is the admission middleware: reject new work while draining, track
// the request for Shutdown, and apply the per-request deadline.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		done, err := s.beginRequest()
		if err != nil {
			w.Header().Set("Retry-After", retryAfterSeconds)
			writeErr(w, http.StatusServiceUnavailable, errCode(err), "%v", err)
			return
		}
		defer done()
		ctx := context.WithValue(r.Context(), admittedKey{}, true)
		if s.reqTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.reqTimeout)
			defer cancel()
		}
		h(w, r.WithContext(ctx))
	}
}

// recoverPanics turns a handler panic into a 500 + metric instead of a
// dead process.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler { // deliberate connection abort
				panic(p)
			}
			s.m.panics.Inc()
			s.log.Error("panic recovered", "method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			// Best effort: if the handler already wrote headers this is a
			// no-op on a broken response, which is all a 500 would be too.
			writeErr(w, http.StatusInternalServerError, CodeInternal, "internal error")
		}()
		next.ServeHTTP(w, r)
	})
}

// beginRequest admits one request for the drain accounting; it fails once
// Shutdown has started. The returned func marks the request finished.
func (s *Server) beginRequest() (func(), error) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return nil, withCode(CodeUnavailable, errors.New("service: shutting down"))
	}
	s.inFlight.Add(1)
	return func() { s.inFlight.Done() }, nil
}

// Shutdown drains the server: new requests are rejected with 503 +
// Retry-After, in-flight requests and diagnoses run to completion (bounded
// by ctx), and the store is flushed. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inFlight.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
	if err := s.store.Flush(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// acquireCtx hands out a worker slot. A free slot is taken immediately;
// otherwise the request queues — but only up to MaxQueue deep. Past that
// the request is shed with CodeOverloaded (HTTP 429 + Retry-After) so an
// overloaded server stays responsive instead of accumulating an unbounded
// backlog. The returned func releases the slot.
func (s *Server) acquireCtx(ctx context.Context) (func(), error) {
	grab := func() func() {
		s.m.poolInUse.Inc()
		return func() {
			s.m.poolInUse.Dec()
			<-s.sem
		}
	}
	select {
	case s.sem <- struct{}{}:
		return grab(), nil
	default:
	}
	if n := s.queued.Add(1); n > int64(s.maxQueue) {
		s.queued.Add(-1)
		s.m.shed.Inc()
		return nil, withCode(CodeOverloaded,
			fmt.Errorf("service: admission queue full (%d waiting)", n-1))
	}
	defer s.queued.Add(-1)
	s.m.poolWaiting.Inc()
	defer s.m.poolWaiting.Dec()
	select {
	case s.sem <- struct{}{}:
		return grab(), nil
	case <-ctx.Done():
		return nil, cancelErr(ctx.Err())
	}
}

// cancelErr types a context error: a blown deadline is a timeout (504), a
// client disconnect a cancellation (499).
func cancelErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return withCode(CodeTimeout, err)
	}
	return withCode(CodeCanceled, err)
}

// statusFor maps a coded error to its HTTP status.
func statusFor(err error) int {
	switch errCode(err) {
	case CodeBadRequest, CodeInvalidBundle:
		return http.StatusBadRequest
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeCanceled:
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeCoded answers with a coded error, and tells the client when to
// retry a 429 or a 503.
func writeCoded(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeErr(w, status, errCode(err), "%v", err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errBody is the JSON error envelope: a human-readable message plus a
// machine-readable code.
type errBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// PushResult is the ingestion response.
type PushResult struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Label    string `json:"label"`
	Run      string `json:"run"`
	Dup      bool   `json:"dup"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	workload, run := q.Get("workload"), q.Get("run")
	label, err := s.checkPush(workload, q.Get("label"), run)
	if err != nil {
		writeCoded(w, err)
		return
	}
	blob, err := obs.ReadBody(r.Body, r.ContentLength, MaxUploadBytes)
	if errors.Is(err, obs.ErrBodyTooLarge) {
		s.rejected.Add(1)
		writeErr(w, http.StatusRequestEntityTooLarge, CodeInvalidBundle, "profile exceeds %d bytes", MaxUploadBytes)
		return
	}
	if err != nil {
		s.rejected.Add(1)
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "read body: %v", err)
		return
	}
	// PutBlob keeps no reference to the blob once it returns, and neither
	// does anything after it here.
	defer obs.PutBuffer(blob)
	release, err := s.acquireCtx(r.Context())
	if err != nil {
		writeCoded(w, err)
		return
	}
	res, err := s.storePush(workload, label, run, blob)
	release()
	if err != nil {
		writeCoded(w, err)
		return
	}
	s.log.Debug("ingest", "workload", workload, "label", label, "run", run, "bytes", len(blob), "dup", res.Dup)
	writeJSON(w, http.StatusOK, res)
}

// checkPush validates the key of one push; a refusal counts as rejected.
// Both ingest handlers call it and then storePush; the single-push handler
// reads the body in between.
func (s *Server) checkPush(workload, label, run string) (store.Label, error) {
	l, err := store.ParseLabel(label)
	if err == nil && (workload == "" || run == "") {
		err = errors.New("workload and run are required")
	}
	if err != nil {
		s.rejected.Add(1)
		return "", withCode(CodeBadRequest, err)
	}
	return l, nil
}

// storePush stores one checked push and counts it as ingested, deduped or
// rejected. A push the backend is unavailable for (a cluster write that
// missed its quorum) is not counted: it is a retryable infrastructure
// fault, not a client error.
func (s *Server) storePush(workload string, label store.Label, run string, blob []byte) (PushResult, error) {
	entry, dup, err := s.store.PutBlob(workload, label, run, blob)
	switch {
	case errors.Is(err, store.ErrUnavailable):
		s.log.Warn("ingest unavailable", "workload", workload, "run", run, "err", err)
		return PushResult{}, withCode(CodeUnavailable, err)
	case err != nil:
		code := CodeBadRequest
		if errors.Is(err, store.ErrInvalidProfile) {
			code = CodeInvalidBundle
		}
		s.rejected.Add(1)
		s.log.Warn("ingest rejected", "workload", workload, "run", run, "err", err)
		return PushResult{}, withCode(code, err)
	case dup:
		s.deduped.Add(1)
	default:
		s.ingested.Add(1)
	}
	return PushResult{ID: entry.ID, Workload: entry.Workload, Label: string(entry.Label), Run: entry.Run, Dup: dup}, nil
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Workloads())
}

// DiagnoseRequest asks for a differential diagnosis of a workload's
// candidate runs against its baseline corpus.
type DiagnoseRequest struct {
	Workload string `json:"workload"`
	// Candidates optionally names candidate run ids; empty means every
	// stored candidate run.
	Candidates []string `json:"candidates,omitempty"`
	// Top bounds the rendered report (default: server's Top).
	Top int `json:"top,omitempty"`
	// Sketches answers this diagnosis from persisted sketches alone,
	// skipping the decode of the candidate blob that block localization
	// needs, so the report's block column stays empty.
	Sketches bool `json:"sketches,omitempty"`
}

// RankEntry is one row of the calibrated ranking.
type RankEntry struct {
	Rank       int     `json:"rank"`
	Func       string  `json:"func"`
	RawCost    float64 `json:"raw_cost"`
	Discount   float64 `json:"discount"`
	Source     string  `json:"source"`
	Calibrated float64 `json:"calibrated"`
	Pattern    string  `json:"pattern"`
}

// DiagnoseResponse is both the diagnosis reply and the stored report.
type DiagnoseResponse struct {
	ReportID   string      `json:"report_id"`
	Workload   string      `json:"workload"`
	Baselines  []string    `json:"baselines"`  // entry ids, corpus order
	Candidates []string    `json:"candidates"` // entry ids, run order
	Ranks      []RankEntry `json:"ranks"`
	Render     string      `json:"render"`
	// Cached is true when this reply was served from the memo cache.
	Cached bool `json:"cached"`
	// Sketches is true when this diagnosis was answered from sketches
	// alone, without block localization.
	Sketches bool `json:"sketches,omitempty"`
	// MemoHits snapshots the server-wide diagnosis cache-hit counter.
	MemoHits int64 `json:"memo_hits"`
}

// Diagnose runs (or recalls) one differential diagnosis. Exported so the
// CLI and harness can drive it without HTTP plumbing in tests.
func (s *Server) Diagnose(req DiagnoseRequest) (*DiagnoseResponse, int, error) {
	return s.DiagnoseContext(context.Background(), req)
}

// DiagnoseContext is Diagnose with cooperative cancellation: the context
// gates the worker-pool slot wait, the in-flight dedup wait, and the
// analysis fan-out itself. A canceled diagnosis reports
// StatusClientClosedRequest and is not memoized.
func (s *Server) DiagnoseContext(ctx context.Context, req DiagnoseRequest) (*DiagnoseResponse, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Direct callers (CLI, harness) register with the drain accounting
	// here; HTTP requests already did in the admission guard.
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
	top := req.Top
	if top <= 0 {
		top = s.top
	}
	baselines := s.store.Baselines(req.Workload)
	if len(baselines) == 0 {
		s.m.diagnoses.With("error").Inc()
		return nil, http.StatusConflict, withCode(CodeBaselineMissing, fmt.Errorf("workload %q has no baseline runs", req.Workload))
	}
	var candidates []*store.Entry
	if len(req.Candidates) == 0 {
		candidates = s.store.Candidates(req.Workload)
	} else {
		for _, run := range req.Candidates {
			e, ok := s.store.Lookup(req.Workload, store.LabelCandidate, run)
			if !ok {
				s.m.diagnoses.With("error").Inc()
				return nil, http.StatusNotFound, withCode(CodeNotFound, fmt.Errorf("workload %q has no candidate run %q", req.Workload, run))
			}
			candidates = append(candidates, e)
		}
	}
	if len(candidates) == 0 {
		s.m.diagnoses.With("error").Inc()
		return nil, http.StatusConflict, withCode(CodeNoCandidates, fmt.Errorf("workload %q has no candidate runs", req.Workload))
	}

	// Memoization and in-flight dedup live in the shared endpoint; the key
	// carries the sketch flag because sketch-mode renders localize no
	// blocks, so the two modes must not share results.
	key := memoKey(req.Workload, top, baselines, candidates, req.Sketches)
	return s.diagEP.run(ctx, req.Workload, key, func(ctx context.Context) (*DiagnoseResponse, int, error) {
		return s.compute(ctx, req.Workload, top, key, baselines, candidates, req.Sketches)
	})
}

// outcomeFor buckets a diagnose failure for the outcome counter.
func outcomeFor(err error) string {
	switch errCode(err) {
	case CodeCanceled:
		return "canceled"
	case CodeTimeout:
		return "timeout"
	case CodeOverloaded:
		return "shed"
	default:
		return "error"
	}
}

func (s *Server) cachedCopy(resp *DiagnoseResponse) *DiagnoseResponse {
	out := *resp
	out.Cached = true
	out.MemoHits = s.memoHits.Load()
	return &out
}

// memoKey hashes the exact diagnosis inputs: every blob id on both sides,
// in order, plus the render bound and the analysis mode. Any new push that
// changes either set changes the key.
func memoKey(workload string, top int, baselines, candidates []*store.Entry, sketches bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00", workload, top)
	if sketches {
		fmt.Fprintf(h, "sk\x00")
	}
	for _, e := range baselines {
		fmt.Fprintf(h, "b:%s\x00", e.ID)
	}
	for _, e := range candidates {
		fmt.Fprintf(h, "c:%s\x00", e.ID)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// diagnoseResponse shapes an analysis report into the API response.
func diagnoseResponse(report *analysis.Report, key, workload string, top int, bIDs, cIDs []string) *DiagnoseResponse {
	resp := &DiagnoseResponse{
		ReportID:   "r-" + key[:16],
		Workload:   workload,
		Baselines:  bIDs,
		Candidates: cIDs,
		Render:     report.Render(top),
	}
	for i, fr := range report.Funcs {
		if i >= top {
			break
		}
		resp.Ranks = append(resp.Ranks, RankEntry{
			Rank:       fr.Rank,
			Func:       fr.Name,
			RawCost:    fr.RawCost,
			Discount:   fr.Discount,
			Source:     fr.DiscountSource,
			Calibrated: fr.Calibrated,
			Pattern:    fr.Pattern.String(),
		})
	}
	return resp
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	resp, ok := s.reports[id]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, "no report %q", id)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Health is the /healthz body: overall status plus per-check detail.
// Status is "ok" when the store is writable, the resolver knows at least
// one workload, and at least one baseline corpus is loaded; "degraded" when
// only baselines are missing (a fresh server that cannot diagnose yet, but
// can ingest); anything else is "unavailable" with HTTP 503.
type Health struct {
	Status            string            `json:"status"`
	Checks            map[string]string `json:"checks"`
	Workloads         int               `json:"workloads"`
	BaselineWorkloads int               `json:"baseline_workloads"`
}

// HealthSnapshot evaluates the health checks.
func (s *Server) HealthSnapshot() Health {
	// The backend classifies itself first (store writability and dirty
	// recovery, or cluster replica health); the service adds its own
	// checks on top.
	status, checks := s.store.HealthDetail()
	h := Health{Status: status, Checks: checks}
	if known := s.resolver.Known(); len(known) == 0 {
		h.Checks["resolver"] = "no workloads resolvable"
		h.Status = "unavailable"
	} else {
		h.Checks["resolver"] = "ok"
	}
	for _, wl := range s.store.Workloads() {
		h.Workloads++
		if wl.Baselines > 0 {
			h.BaselineWorkloads++
		}
	}
	if h.BaselineWorkloads == 0 {
		h.Checks["baselines"] = "no baseline corpus loaded"
		if h.Status == "ok" {
			h.Status = "degraded"
		}
	} else {
		h.Checks["baselines"] = "ok"
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.HealthSnapshot()
	status := http.StatusOK
	if h.Status == "unavailable" {
		status = http.StatusServiceUnavailable
		s.log.Error("health check failed", "checks", fmt.Sprint(h.Checks))
	}
	writeJSON(w, status, h)
}

// Stats is the observability snapshot, including the diagnosis cache-hit
// counter the end-to-end harness asserts on.
type Stats struct {
	Ingested          int64             `json:"ingested"`
	Deduped           int64             `json:"deduped"`
	Rejected          int64             `json:"rejected"`
	Diagnoses         int64             `json:"diagnoses"`
	DiagnoseCacheHits int64             `json:"diagnose_cache_hits"`
	DecodeCache       store.CacheStats  `json:"decode_cache"`
	SketchCache       store.SketchStats `json:"sketch_cache"`
	Workers           int               `json:"workers"`
	Workloads         int               `json:"workloads"`
}

// StatsSnapshot returns current counters.
func (s *Server) StatsSnapshot() Stats {
	return Stats{
		Ingested:          s.ingested.Load(),
		Deduped:           s.deduped.Load(),
		Rejected:          s.rejected.Load(),
		Diagnoses:         s.diagnoses.Load(),
		DiagnoseCacheHits: s.memoHits.Load(),
		DecodeCache:       s.store.CacheStats(),
		SketchCache:       s.store.SketchStats(),
		Workers:           cap(s.sem),
		Workloads:         len(s.store.Workloads()),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// RootRank scans a response's rank rows for fn (the ground-truth root
// cause); 0 means not ranked within the returned rows.
func (r *DiagnoseResponse) RootRank(fn string) int {
	for _, e := range r.Ranks {
		if e.Func == fn {
			return e.Rank
		}
	}
	return 0
}

// Summary renders a one-line description for CLI output.
func (r *DiagnoseResponse) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "report %s: workload %s, %d baselines, %d candidates",
		r.ReportID, r.Workload, len(r.Baselines), len(r.Candidates))
	if r.Cached {
		b.WriteString(" (cached)")
	}
	return b.String()
}
