package main

import (
	"sync"
	"time"
)

// result is one completed op.
type result struct {
	op  op
	ms  float64 // wall time as the calling client saw it
	err error
}

// loop is a closed-loop load generator: clients goroutines each take the
// next op, run it and wait for its reply before taking another, until a
// fixed number of rounds is done.
type loop struct {
	gen    *opGen
	rounds int

	mu      sync.Mutex
	pending []op
	started int
	results []result
}

// next hands out the next op; ok is false once the last round is handed out.
func (l *loop) next() (op, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		if l.started == l.rounds {
			return op{}, false
		}
		l.pending = l.gen.round(l.started)
		l.started++
	}
	o := l.pending[0]
	l.pending = l.pending[1:]
	return o, true
}

// run drives clients callers through exec and returns the results in
// completion order and the wall time from the first op to the last reply.
func (l *loop) run(clients int, exec func(op) error) ([]result, time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, ok := l.next()
				if !ok {
					return
				}
				t := time.Now()
				err := exec(o)
				r := result{op: o, ms: float64(time.Since(t)) / 1e6, err: err}
				l.mu.Lock()
				l.results = append(l.results, r)
				l.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return l.results, time.Since(start)
}
