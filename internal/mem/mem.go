// Package mem implements the distributed heap: each simulated processor owns
// one word-addressable heap section, and allocation requests name the
// processor the object should live on (the paper's ALLOC library routine).
package mem

import (
	"fmt"

	"repro/internal/gaddr"
)

// Heap is one processor's section of the distributed heap. The unit of
// addressing is the byte (to match gaddr offsets and the paper's page/line
// geometry) but all accesses are whole 8-byte words.
//
// A Heap has no lock. It belongs to one run, and a run executes on one
// thread of control: a simulated thread "located" on another processor that
// reaches into this section for a write-through store or a line fetch is a
// coroutine of the same dispatcher (machine.LoopScheduler), never a second
// goroutine. Images taken by Snapshot are what crosses runs.
type Heap struct {
	proc int

	words []uint64 // heap storage; index = byte offset / WordBytes
	next  uint32   // bump-allocation cursor (byte offset)
	limit uint32   // exclusive upper bound on offsets
}

// nilReserve is the heap prefix no allocation gets, so that the nil pointer
// ⟨0,0⟩ is never valid: fixed, not a page, so pointers ignore cache geometry.
const nilReserve = 2048

// NewHeap creates the heap section for processor proc with the given
// capacity in bytes (rounded up to a whole page), nilReserve of it reserved.
func NewHeap(proc int, capacity uint32) *Heap {
	if capacity > gaddr.MaxOffset {
		capacity = gaddr.MaxOffset
	}
	pages := max((capacity+gaddr.PageBytes-1)/gaddr.PageBytes, 2)
	return &Heap{
		proc:  proc,
		next:  nilReserve,
		limit: pages * gaddr.PageBytes,
	}
}

// Proc returns the owning processor's name.
func (h *Heap) Proc() int { return h.proc }

// ExhaustedError is the panic value of an Alloc that does not fit its heap
// section. A benchmark's build recovers it into an error (bench.Info.build);
// anywhere else it ends the run.
type ExhaustedError struct {
	Proc                    int
	InUse, Requested, Limit uint32
}

func (e *ExhaustedError) Error() string {
	hint := "raise Config.HeapBytesPerProc"
	if e.Limit >= gaddr.MaxOffset {
		hint = "the problem does not fit one section"
	}
	return fmt.Sprintf("mem: heap section of processor %d exhausted (%d bytes in use, %d requested, limit %d; 26-bit offsets address at most gaddr.MaxOffset = %d bytes): %s",
		e.Proc, e.InUse, e.Requested, e.Limit, gaddr.MaxOffset, hint)
}

// Alloc carves nbytes out of the heap and returns the global pointer to it.
// Objects are word-aligned. Alloc never returns nil: exhausting a heap
// section is a configuration error and panics with an *ExhaustedError.
func (h *Heap) Alloc(nbytes uint32) gaddr.GP {
	if nbytes == 0 {
		nbytes = gaddr.WordBytes
	}
	nbytes = (nbytes + gaddr.WordBytes - 1) &^ uint32(gaddr.WordBytes-1)
	off := h.next
	if off+nbytes > h.limit || off+nbytes < off {
		panic(&ExhaustedError{Proc: h.proc, InUse: off, Requested: nbytes, Limit: h.limit})
	}
	h.next = off + nbytes
	need := int((off + nbytes) / gaddr.WordBytes)
	if need > len(h.words) {
		grown := make([]uint64, max(need*2, int(4*gaddr.WordsPerPage)))
		copy(grown, h.words)
		h.words = grown
	}
	return gaddr.Pack(h.proc, off)
}

func (h *Heap) wordIndex(off uint32) int {
	if off%gaddr.WordBytes != 0 {
		panic(fmt.Sprintf("mem: misaligned access at offset %#x on processor %d", off, h.proc))
	}
	return int(off / gaddr.WordBytes)
}

// LoadWord reads the word at byte offset off.
func (h *Heap) LoadWord(off uint32) uint64 {
	i := h.wordIndex(off)
	if i >= len(h.words) {
		panic(fmt.Sprintf("mem: load beyond allocation at %#x on processor %d", off, h.proc))
	}
	return h.words[i]
}

// StoreWord writes the word at byte offset off.
func (h *Heap) StoreWord(off uint32, v uint64) {
	i := h.wordIndex(off)
	if i >= len(h.words) {
		panic(fmt.Sprintf("mem: store beyond allocation at %#x on processor %d", off, h.proc))
	}
	h.words[i] = v
}

// CopyLineOut copies the cache line starting at byte offset lineOff (which
// must be line-aligned) into dst, which must hold WordsPerLine words. This
// is the home-side service of a cache line fetch.
func (h *Heap) CopyLineOut(lineOff uint32, dst []uint64) {
	if lineOff%gaddr.LineBytes != 0 {
		panic(fmt.Sprintf("mem: CopyLineOut at unaligned offset %#x", lineOff))
	}
	i := int(lineOff / gaddr.WordBytes)
	for w := 0; w < gaddr.WordsPerLine; w++ {
		if i+w < len(h.words) {
			dst[w] = h.words[i+w]
		} else {
			dst[w] = 0
		}
	}
}

// FoldFingerprint folds the heap section's allocated contents (and its
// allocation cursor) into a running FNV-1a hash and returns the new hash.
// Differential tests compare fingerprints across coherence schemes: since
// every write — cached or not — goes through to the home heap, runs that
// compute the same result must leave byte-identical heaps.
func (h *Heap) FoldFingerprint(hash uint64) uint64 {
	const prime = 1099511628211
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			hash ^= v & 0xff
			hash *= prime
			v >>= 8
		}
	}
	fold(uint64(h.proc))
	fold(uint64(h.next))
	words := int(h.next / gaddr.WordBytes)
	if words > len(h.words) {
		words = len(h.words)
	}
	// Skip the reserve: it is never addressable.
	for i := nilReserve / gaddr.WordBytes; i < words; i++ {
		fold(h.words[i])
	}
	return hash
}

// Snapshot copies the heap section's allocated contents and allocation
// cursor into a compact image. The image is immutable and safe to share:
// Restore copies out of it, never aliases it.
func (h *Heap) Snapshot() HeapImage {
	words := int(h.next / gaddr.WordBytes)
	if words > len(h.words) {
		words = len(h.words)
	}
	img := HeapImage{Proc: h.proc, Next: h.next, Words: make([]uint64, words)}
	copy(img.Words, h.words[:words])
	return img
}

// Restore overwrites the heap section with a previously captured image.
// The image must come from a heap of the same processor; the section's
// capacity must be able to hold it.
func (h *Heap) Restore(img HeapImage) {
	if img.Proc != h.proc {
		panic(fmt.Sprintf("mem: restoring processor %d image onto processor %d", img.Proc, h.proc))
	}
	if img.Next > h.limit {
		panic(fmt.Sprintf("mem: heap image (%d bytes) exceeds section limit %d on processor %d",
			img.Next, h.limit, h.proc))
	}
	if len(img.Words) > len(h.words) {
		h.words = make([]uint64, len(img.Words))
	}
	n := copy(h.words, img.Words)
	for i := n; i < len(h.words); i++ {
		h.words[i] = 0
	}
	h.next = img.Next
}

// HeapImage is one processor's captured heap section: the allocated words
// and the bump cursor, enough to reproduce the section bit for bit.
type HeapImage struct {
	Proc  int
	Next  uint32
	Words []uint64
}
