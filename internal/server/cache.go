package server

import (
	"container/list"
	"strconv"
	"sync"
)

// cacheEntry is one 200 run result, fresh or memoized: the canonical
// response bytes and the header values every response of it shares, its
// trace digest and length (none writes them).
type cacheEntry struct {
	body                 []byte
	digestHdr, lengthHdr []string
}

func newEntry(body []byte, digest string) *cacheEntry {
	return &cacheEntry{body, []string{digest}, []string{strconv.Itoa(len(body))}}
}

// lruCache is a strict-LRU memo keyed by canonical strings. Eviction
// order is purely access order and capacity is an entry count, so the
// cache's behavior is a deterministic function of the request sequence —
// no clocks, no sizes, no randomness. The server runs two of these (and
// the /run prologue one more, decodeMemo):
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

// lruGet returns the value under key, promoting it to most recently used.
// A key held as bytes is not copied: the map index reads it in place.
func lruGet[K string | []byte, V any](c *lruCache[V], key K) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
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
