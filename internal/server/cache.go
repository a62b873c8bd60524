package server

import (
	"container/list"
	"sync"

	"repro/internal/bench"
)

// cacheEntry is one memoized run result: the canonical response bytes and
// the trace digest the determinism argument rests on.
type cacheEntry struct {
	body   []byte
	digest string
}

// lruCache is a strict-LRU memo keyed by canonical strings. Eviction
// order is purely access order and capacity is an entry count, so the
// cache's behavior is a deterministic function of the request sequence —
// no clocks, no sizes, no randomness. The server runs two of these:
//
//   - the result cache (lruCache[*cacheEntry]) memoizes whole run
//     records, keyed by the full canonical configuration. Soundness
//     comes from the simulator's determinism: a RunRecord is a pure
//     function of its configuration, so the memoized bytes are exactly
//     what a re-run would produce.
//
//   - the phase cache (lruCache[*bench.BuildState]) memoizes build-phase
//     boundaries, keyed by bench.Info.BuildKey (benchmark, machine size,
//     scale) — deliberately NOT by scheme or mode. Soundness comes from
//     the build making no simulated accesses, so one configuration's heap
//     images serve every configuration that agrees on the key, and from
//     the heap fingerprint RunPhased re-checks on every restore.
type lruCache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// lruItem pairs a value with its key so eviction can unlink the index.
type lruItem[V any] struct {
	key string
	val V
}

// newLRU returns a cache holding up to capacity entries; zero or negative
// capacity disables caching (every lookup misses, puts drop).
func newLRU[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the value under key, promoting it to most recently used.
func (c *lruCache[V]) get(key string) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// put inserts or refreshes the entry under key, evicting the least
// recently used entry when over capacity.
func (c *lruCache[V]) put(key string, v V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem[V]{key: key, val: v})
	for c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.items, old.Value.(*lruItem[V]).key)
	}
}

// len reports the number of cached entries.
func (c *lruCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// keys returns the cached keys from most to least recently used; tests
// assert eviction order through it.
func (c *lruCache[V]) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruItem[V]).key)
	}
	return out
}

type resultCache = lruCache[*cacheEntry]
type phaseCache = lruCache[*bench.BuildState]
