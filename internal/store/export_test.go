package store

import (
	"sync"
	"testing"
)

// HoldFolds makes every sketch fold started from now on wait until release
// is called, so tests can hold acked pushes' folds pending. The test's
// cleanup releases them and removes the hold.
func HoldFolds(t testing.TB) (release func()) {
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	testHookFold = func() { <-gate }
	t.Cleanup(func() {
		release()
		testHookFold = nil
	})
	return release
}

// PendingFolds returns the number of queued folds.
func (s *Store) PendingFolds() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.folds)
}

// MaxPendingFolds is the bound on the folds acked pushes leave pending.
const MaxPendingFolds = maxPendingFolds
