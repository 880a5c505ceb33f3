package store_test

import (
	"testing"

	"vprof/internal/store"
)

// TestCacheEvictsInInsertionOrder: a full cache evicts the oldest inserted
// id; replacing a cached id's value keeps its place in that order.
func TestCacheEvictsInInsertionOrder(t *testing.T) {
	c := store.NewCache[int](2)
	if !c.Put("a", 1) || !c.Put("b", 2) {
		t.Fatal("fresh ids reported as cached")
	}
	if c.Put("a", 10) {
		t.Fatal("replacing a cached id reported it new")
	}
	c.Put("c", 3) // evicts a, the oldest insert despite its replacement
	if _, ok := c.Get("a"); ok {
		t.Error("a survived eviction")
	}
	for id, want := range map[string]int{"b": 2, "c": 3} {
		if v, ok := c.Get(id); !ok || v != want {
			t.Errorf("Get(%s) = %d, %v; want %d", id, v, ok, want)
		}
	}
	if st := c.Stats(); st != (store.CacheStats{Hits: 2, Misses: 1, Entries: 2}) || c.Len() != 2 {
		t.Errorf("stats %+v len %d, want 2 hits, 1 miss, 2 entries", st, c.Len())
	}
}
