// Package cache implements Olden's software cache (paper §3.2, Figure 1).
//
// Each processor uses its local memory as a large, fully-associative,
// write-through cache. Allocation is at the page level (2 KB) and transfer
// at the line level (64 bytes). Because the CM-5 gives no virtual-memory
// support, translation uses a 1024-bucket hash table with a list of pages
// kept in each bucket; each entry carries a tag (the local copy) and one
// valid bit per line — 32 bits per page with the paper's geometry.
package cache

import (
	"math/bits"

	"repro/internal/gaddr"
)

// NumBuckets is the size of the translation hash table ("a 1K hash table
// with a list of pages kept in each bucket").
const NumBuckets = 1024

// slabEntries sizes the entry and page-data slabs: page entries are carved
// out of block allocations instead of being allocated one by one, so a
// kernel faulting in thousands of pages costs dozens of allocations, not
// thousands, and entries born together sit contiguously in memory.
const slabEntries = 64

// Entry is one cached page: the tag used to translate global to local
// pointers, the per-line valid bits, and — for the coherence schemes of
// Appendix A — a staleness mark and the home timestamp at last sync.
type Entry struct {
	Page  gaddr.PageID
	Valid uint32 // bit i set ⇒ line i holds current data
	Stale bool   // bilateral scheme: must timestamp-check before next use
	Stamp uint32 // bilateral scheme: home page timestamp at last sync
	Data  []uint64
	next  *Entry
}

// Cache is one processor's software cache. It has no lock and no atomics:
// every method is invoked by the run's virtual-time-active thread, and the
// scheduler runs those threads one at a time as coroutines of one
// dispatcher. PagesAllocated is read once the run has returned.
type Cache struct {
	buckets [NumBuckets]*Entry
	entries int // pages allocated since New; the cache never evicts

	// slab and arena are the block-allocation cursors entries and their
	// page data are carved from.
	slab  []Entry
	arena []uint64
}

// New returns an empty cache.
func New() *Cache { return &Cache{} }

func bucketOf(p gaddr.PageID) int {
	v := uint32(p) / gaddr.PageBytes
	return int((v ^ v>>10 ^ v>>20) % NumBuckets)
}

func (c *Cache) find(p gaddr.PageID) *Entry {
	for e := c.buckets[bucketOf(p)]; e != nil; e = e.next {
		if e.Page == p {
			return e
		}
	}
	return nil
}

// alloc carves a fresh entry (with zeroed page data) out of the slabs and
// links it into its bucket.
func (c *Cache) alloc(p gaddr.PageID) *Entry {
	if len(c.slab) == 0 {
		c.slab = make([]Entry, slabEntries)
	}
	e := &c.slab[0]
	c.slab = c.slab[1:]
	if len(c.arena) < gaddr.WordsPerPage {
		c.arena = make([]uint64, gaddr.WordsPerPage*slabEntries)
	}
	e.Data = c.arena[:gaddr.WordsPerPage:gaddr.WordsPerPage]
	c.arena = c.arena[gaddr.WordsPerPage:]
	e.Page = p
	b := bucketOf(p)
	e.next = c.buckets[b]
	c.buckets[b] = e
	c.entries++
	return e
}

// Hit is the resident-line fast path: one hash-chain walk deciding whether
// the line containing g can be served from the cache with no further
// protocol work — page present, line valid, entry not marked stale. When
// it returns ok=false the caller falls back to Probe (and, under the
// bilateral scheme, the timestamp check), which re-derives the same state;
// Hit itself never allocates and never mutates the cache.
func (c *Cache) Hit(g gaddr.GP) (e *Entry, ok bool) {
	e = c.find(gaddr.PageOf(g))
	if e == nil || e.Stale || e.Valid&(1<<uint(gaddr.LineOf(g))) == 0 {
		return e, false
	}
	return e, true
}

// Probe looks up the page containing g, allocating an entry if the page is
// not present. It reports whether the page was newly allocated and whether
// the line containing g is valid. The entry's Stale flag is returned so the
// caller can run the bilateral scheme's timestamp check before trusting
// valid bits.
func (c *Cache) Probe(g gaddr.GP) (e *Entry, pageNew, lineValid bool) {
	p := gaddr.PageOf(g)
	line := gaddr.LineOf(g)
	e = c.find(p)
	if e == nil {
		e = c.alloc(p)
		pageNew = true
	}
	lineValid = e.Valid&(1<<uint(line)) != 0
	return e, pageNew, lineValid
}

// LineState reads an entry's valid bit for one line and its staleness mark.
func (c *Cache) LineState(e *Entry, line int) (valid, stale bool) {
	return e.Valid&(1<<uint(line)) != 0, e.Stale
}

// InstallLine copies a fetched 64-byte line into the entry and marks it
// valid.
func (c *Cache) InstallLine(e *Entry, line int, words []uint64) {
	copy(e.Data[line*gaddr.WordsPerLine:(line+1)*gaddr.WordsPerLine], words)
	e.Valid |= 1 << uint(line)
}

// ReadWord reads the word at byte offset pageOff within the cached page.
func (c *Cache) ReadWord(e *Entry, pageOff uint32) uint64 {
	return e.Data[pageOff/gaddr.WordBytes]
}

// WriteWord updates the local copy (the home copy is updated separately by
// the write-through).
func (c *Cache) WriteWord(e *Entry, pageOff uint32, v uint64) {
	e.Data[pageOff/gaddr.WordBytes] = v
}

// InvalidateAll clears every valid bit (local-knowledge scheme: "each
// processor invalidates its entire cache upon receiving a migration").
// Page entries stay allocated so hash chains stay short and the pages-
// cached statistic is cumulative. It returns the number of lines that
// were actually valid — the data the flush really discarded, which the
// trace layer records to expose over-invalidation.
func (c *Cache) InvalidateAll() (lines int) {
	for b := range c.buckets {
		for e := c.buckets[b]; e != nil; e = e.next {
			lines += bits.OnesCount32(e.Valid)
			e.Valid = 0
			e.Stale = false
		}
	}
	return lines
}

// InvalidateHomes clears valid bits of every line whose page is homed on a
// processor named in procMask (bit p set ⇒ processor p). This is the
// refined local-knowledge rule for returns: "we need only invalidate cached
// copies of lines from processors whose memories have been written by the
// returning thread." It returns the number of valid lines discarded.
func (c *Cache) InvalidateHomes(procMask uint64) (lines int) {
	for b := range c.buckets {
		for e := c.buckets[b]; e != nil; e = e.next {
			if procMask&(1<<uint(e.Page.Proc())) != 0 {
				lines += bits.OnesCount32(e.Valid)
				e.Valid = 0
				e.Stale = false
			}
		}
	}
	return lines
}

// InvalidateLines clears the given lines of one page if it is cached
// (global-knowledge scheme invalidation message). It returns the mask of
// lines that were actually valid and got cleared: zero means the message
// was spurious — the sharer-tracking is page-grained, so a sharer may
// receive invalidations for lines it never cached (the "spurious
// invalidation messages" the paper notes in Appendix A).
func (c *Cache) InvalidateLines(p gaddr.PageID, lineMask uint32) (cleared uint32) {
	e := c.find(p)
	if e == nil {
		return 0
	}
	cleared = e.Valid & lineMask
	e.Valid &^= lineMask
	return cleared
}

// MarkAllStale marks every cached page stale (bilateral scheme: "on
// receiving a migration, a processor marks all of its pages, so that they
// miss on the first access"). It returns the number of pages marked.
func (c *Cache) MarkAllStale() (pages int) {
	for b := range c.buckets {
		for e := c.buckets[b]; e != nil; e = e.next {
			if e.Valid != 0 {
				e.Stale = true
				pages++
			}
		}
	}
	return pages
}

// Refresh completes a bilateral timestamp check: lines written at home
// since the entry's stamp are invalidated, the stamp advances, and the
// staleness mark clears. It returns the number of valid lines the refresh
// discarded (like the other invalidation paths).
func (c *Cache) Refresh(e *Entry, changed uint32, newStamp uint32) (lines int) {
	lines = bits.OnesCount32(e.Valid & changed)
	e.Valid &^= changed
	e.Stamp = newStamp
	e.Stale = false
	return lines
}

// keys returns every cached page in bucket order, each hash chain walked
// newest-insertion-first — the same introspection idiom as the serving
// layer's generic-LRU keys(). The software cache never evicts, so chain
// position is pure insertion order; the fast-path equivalence tests assert
// through this that Hit never disturbs the table.
func (c *Cache) keys() []gaddr.PageID {
	out := make([]gaddr.PageID, 0, c.entries)
	for b := range c.buckets {
		for e := c.buckets[b]; e != nil; e = e.next {
			out = append(out, e.Page)
		}
	}
	return out
}

// Entries returns the number of live page entries.
func (c *Cache) Entries() int { return c.entries }

// PagesAllocated returns the number of page entries allocated since New —
// Table 3's "Total Pages Cached". Invalidations keep
// entries, so it is Entries as the int64 the statistics use.
func (c *Cache) PagesAllocated() int64 { return int64(c.entries) }

// AvgChainLength returns the mean hash-chain length over non-empty buckets;
// the paper reports this is approximately one in practice.
func (c *Cache) AvgChainLength() float64 {
	used := 0
	for b := range c.buckets {
		if c.buckets[b] != nil {
			used++
		}
	}
	if used == 0 {
		return 0
	}
	return float64(c.entries) / float64(used)
}
