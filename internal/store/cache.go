package store

import "sync"

// Cache is a fixed-capacity map from blob id to a value derived from that
// blob, evicting the oldest inserted id once full. It counts Get hits and
// misses and is safe for concurrent use. The store's decoded-profile and
// sketch caches and the cluster router's caches all use it.
type Cache[V any] struct {
	mu           sync.Mutex
	vals         map[string]V
	ring         []string // ids in insertion order; once full, ring[next] is the oldest
	next         int
	hits, misses int64
}

// NewCache returns an empty cache holding at most capacity ids; capacity
// must be positive.
func NewCache[V any](capacity int) *Cache[V] {
	return &Cache[V]{vals: make(map[string]V, capacity), ring: make([]string, 0, capacity)}
}

// Get returns the value cached under id, counting a hit or a miss.
func (c *Cache[V]) Get(id string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vals[id]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put caches v under id. It replaces the value of a cached id in place and
// reports whether id was new; a new id evicts the oldest once the cache is
// full.
func (c *Cache[V]) Put(id string, v V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, cached := c.vals[id]
	c.vals[id] = v
	switch {
	case cached:
	case len(c.ring) < cap(c.ring):
		c.ring = append(c.ring, id)
	default:
		delete(c.vals, c.ring[c.next])
		c.ring[c.next] = id
		c.next = (c.next + 1) % len(c.ring)
	}
	return !cached
}

// Len returns the number of cached ids.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals)
}

// Stats returns the hit and miss counts and the number of cached ids.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.vals)}
}
