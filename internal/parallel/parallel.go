// Package parallel is the analysis pipeline's deterministic fan-out engine:
// a bounded worker pool whose results are always merged in stable index
// order, so a computation parallelized with it produces byte-for-byte the
// output of its sequential counterpart.
//
// The contract every caller relies on:
//
//   - Work is identified by a dense index range [0, n). Each index writes
//     only its own result slot, so the merged result order never depends on
//     goroutine scheduling.
//   - workers <= 1 runs inline on the calling goroutine — the legacy
//     sequential path, with no goroutines involved at all.
//   - Errors and panics are reported deterministically: when several
//     indices fail, the lowest index wins.
//
// The worker count for a whole invocation is resolved once via Workers:
// an explicit request beats the VPROF_WORKERS environment variable, which
// beats GOMAXPROCS.
package parallel

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
)

// EnvWorkers is the environment variable consulted when no explicit worker
// count is requested.
const EnvWorkers = "VPROF_WORKERS"

// Workers resolves an effective worker count: requested if positive, else
// the VPROF_WORKERS environment variable if set to a positive integer, else
// GOMAXPROCS. The result is always at least 1.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines.
// Indices are handed out by an atomic counter, so the pool is bounded and
// work-stealing; fn must confine its writes to per-index state. A panic in
// any fn is re-raised on the calling goroutine after all workers finish
// (lowest panicking index wins, so repeated runs fail identically).
func ForEach(workers, n int, fn func(i int)) {
	ForEachCtx(context.Background(), workers, n, fn)
}

// runOne isolates one index so a panic is captured (by index, for
// deterministic re-raise) without killing the worker goroutine.
func runOne(i int, fn func(int), panics []any, panicked *atomic.Bool) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
			panicked.Store(true)
		}
	}()
	fn(i)
}

// Map computes fn(i) for every i in [0, n) on up to workers goroutines and
// returns the results in index order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// MapErr is Map for fallible work. All indices run to completion regardless
// of failures (the pool does not cancel); the returned error is the one from
// the lowest failing index, so an error surfaced under workers=8 is the same
// error the sequential path would have hit first.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(workers, n, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
