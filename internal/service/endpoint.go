package service

// endpoint is the compute-endpoint chassis shared by diagnose and causal
// (and any future memoized analysis route): one bounded result memo keyed
// by the exact request inputs, single-flight dedup of identical concurrent
// requests, typed-error outcome counting (including 499-on-cancel), a
// computed-only duration histogram, and the "<name> computed"/"<name>
// failed" log lines. The per-endpoint differences — how a memo hit is
// decorated, what a fresh result must update, which attributes the computed
// log line carries — are hooks, so both endpoints keep byte-identical HTTP
// behavior while sharing one implementation.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"vprof/internal/obs"
	"vprof/internal/store"
)

// memoCap bounds each endpoint's memo, like the router's caches: past it,
// the oldest result is evicted and its report id answers 404.
const memoCap = 64

// memoEntry is one memoized result and the full key it answers. The memo
// indexes it by memoID(key), the hex digits a report id carries.
type memoEntry[T any] struct {
	key string
	val *T
}

func memoID(key string) string { return key[:16] }

// endpoint owns the memo + single-flight machinery for one compute route.
// The inflight map is guarded by the server's mu, which run also holds
// across each memo check and store, so a key is always in one of the two
// while its result is being computed or kept.
type endpoint[T any] struct {
	s        *Server
	name     string          // log-line prefix: "diagnose", "causal"
	requests *obs.CounterVec // per-outcome counter for this route
	memoHits *obs.Counter
	duration *obs.Histogram // wall time of computed (non-memoized) results

	memo     *store.Cache[memoEntry[T]]
	inflight map[string]chan struct{}

	// onHit decorates a memoized result for return (mark Cached, bump
	// endpoint-specific hit counters). Must copy, never mutate the memo.
	onHit func(*T) *T
	// finish decorates a computed result for return and supplies the
	// middle attributes of the "<name> computed" log line.
	finish func(*T) (*T, []any)
}

func newEndpoint[T any](s *Server, name string, requests *obs.CounterVec, memoHits *obs.Counter, duration *obs.Histogram) *endpoint[T] {
	return &endpoint[T]{
		s:        s,
		name:     name,
		requests: requests,
		memoHits: memoHits,
		duration: duration,
		memo:     store.NewCache[memoEntry[T]](memoCap),
		inflight: map[string]chan struct{}{},
	}
}

// run serves one request: memo fast path, single-flight wait (aborted by
// ctx with the typed cancel error), else compute — memoizing on success,
// counting the outcome either way.
func (e *endpoint[T]) run(ctx context.Context, workload, key string, compute func(context.Context) (*T, int, error)) (*T, int, error) {
	for {
		e.s.mu.Lock()
		if m, ok := e.memo.Get(memoID(key)); ok && m.key == key {
			e.s.mu.Unlock()
			e.memoHits.Inc()
			e.requests.With("cached").Inc()
			return e.onHit(m.val), http.StatusOK, nil
		}
		ch, busy := e.inflight[key]
		if !busy {
			ch = make(chan struct{})
			e.inflight[key] = ch
			e.s.mu.Unlock()
			break
		}
		e.s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			cerr := cancelErr(ctx.Err())
			e.requests.With(outcomeFor(cerr)).Inc()
			return nil, statusFor(cerr), cerr
		}
	}
	start := time.Now()
	resp, status, err := e.computeGuarded(ctx, key, compute)
	e.s.mu.Lock()
	if err == nil {
		e.memo.Put(memoID(key), memoEntry[T]{key: key, val: resp})
	}
	ch := e.inflight[key]
	delete(e.inflight, key)
	e.s.mu.Unlock()
	close(ch)
	if err != nil {
		e.requests.With(outcomeFor(err)).Inc()
		e.s.log.Warn(e.name+" failed", "workload", workload, "status", status, "err", err)
		return nil, status, err
	}
	e.requests.With("computed").Inc()
	e.duration.Observe(time.Since(start).Seconds())
	out, attrs := e.finish(resp)
	args := append([]any{"workload", workload}, attrs...)
	args = append(args, "duration", time.Since(start))
	e.s.log.Info(e.name+" computed", args...)
	return out, http.StatusOK, nil
}

// lookup returns the memoized result whose report id carries id, the
// memoID of its key.
func (e *endpoint[T]) lookup(id string) (*T, bool) {
	m, ok := e.memo.Get(id)
	return m.val, ok
}

// computeGuarded protects the single-flight entry against panics: whatever
// happens, waiters on this key are released and the key freed for the next
// attempt before the panic continues up to the recovery middleware.
func (e *endpoint[T]) computeGuarded(ctx context.Context, key string, compute func(context.Context) (*T, int, error)) (resp *T, status int, err error) {
	defer func() {
		if p := recover(); p != nil {
			e.s.mu.Lock()
			ch := e.inflight[key]
			delete(e.inflight, key)
			e.s.mu.Unlock()
			if ch != nil {
				close(ch)
			}
			panic(p)
		}
	}()
	return compute(ctx)
}

// handleJSON is the HTTP shim every JSON compute endpoint shares: bounded
// request decode (400 on garbage), typed-error rendering with Retry-After
// on backpressure statuses, and the 200 envelope.
func handleJSON[Req any](serve func(context.Context, Req) (any, int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "decode request: %v", err)
			return
		}
		resp, status, err := serve(r.Context(), req)
		if err != nil {
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", retryAfterSeconds)
			}
			writeErr(w, status, errCode(err), "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}
