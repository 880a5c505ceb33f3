package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForEachCtx is ForEach with cooperative cancellation: once ctx is canceled
// no new index is claimed, in-flight indices drain, and ctx.Err() is
// returned iff at least one index was never run. ForEach runs here with a
// context that is never canceled, whose nil Done channel never fires; a
// nil ctx is taken as one too.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers > n {
		workers = n
	}
	m := poolMetrics.Load()
	m.pending.Add(float64(n))
	completed := 0
	if workers <= 1 {
		for ; completed < n; completed++ {
			select {
			case <-done:
				m.pending.Add(float64(completed - n))
				return ctx.Err()
			default:
			}
			m.active.Inc()
			fn(completed)
			m.active.Dec()
			m.tasks.Inc()
			m.pending.Dec()
		}
		return nil
	}
	panics := make([]any, n)
	var panicked atomic.Bool
	var next, ran atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				m.active.Inc()
				runOne(i, fn, panics, &panicked)
				m.active.Dec()
				m.tasks.Inc()
				m.pending.Dec()
				ran.Add(1)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
	if int(ran.Load()) != n {
		m.pending.Add(float64(ran.Load()) - float64(n))
		return ctx.Err()
	}
	return nil
}

// MapCtx is Map with cancellation: on early cancellation the returned slice
// holds results only for the indices that ran, alongside ctx.Err().
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out, err
}

// MapErrCtx is MapErr with cancellation. Cancellation takes precedence over
// per-index errors (an aborted run reports why it aborted); otherwise the
// lowest failing index wins, exactly as in MapErr.
func MapErrCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if err := ForEachCtx(ctx, workers, n, func(i int) {
		out[i], errs[i] = fn(i)
	}); err != nil {
		return out, err
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
