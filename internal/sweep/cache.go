package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache is a concurrency-safe memoization table with singleflight
// semantics: the first caller of a key computes it while concurrent
// callers of the same key block until that computation finishes, so a
// grid with repeated cells (the same Spec+Policy solved for several
// figures) pays for each distinct solve exactly once even when the
// duplicates are in flight simultaneously. Errors are cached alongside
// values — the solvers are deterministic, so a diverged cell would
// diverge again on retry.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
}

type cacheEntry struct {
	ready chan struct{}
	val   any
	err   error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*cacheEntry{}}
}

// Do returns the cached value for key, computing it with compute on the
// first call. The third return reports whether the value came from the
// cache (including waiting on another goroutine's in-flight computation).
func (c *Cache) Do(key string, compute func() (any, error)) (any, error, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.ready:
			// Completed entry: a plain hit.
		default:
			// Still computing on another goroutine: this caller coalesces
			// onto the in-flight computation. (Scheduling-dependent by
			// nature — reported as volatile telemetry, never compared
			// across runs.)
			c.coalesced.Add(1)
		}
		<-e.ready
		c.hits.Add(1)
		return e.val, e.err, true
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	// A panicking compute must not leave waiters blocked on e.ready
	// forever: record it as an error, release them, then re-panic.
	defer func() {
		if r := recover(); r != nil {
			e.err = fmt.Errorf("sweep: compute for key %q panicked: %v", key, r)
			close(e.ready)
			panic(r)
		}
	}()
	e.val, e.err = compute()
	close(e.ready)
	return e.val, e.err, false
}

// Len reports the number of distinct keys (including in-flight ones).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats reports how many Do calls were answered from the cache (hits)
// and how many ran their computation (misses).
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Coalesced reports how many of the hits blocked on an in-flight
// computation of the same key (singleflight coalescing) rather than
// reading a completed entry. Unlike Stats, this depends on scheduling:
// serial sweeps coalesce nothing, parallel sweeps coalesce whenever
// duplicate cells are simultaneously in flight.
func (c *Cache) Coalesced() uint64 {
	return c.coalesced.Load()
}
