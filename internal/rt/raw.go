package rt

import (
	"fmt"

	"repro/internal/gaddr"
)

// This file is the only sanctioned doorway for programs that need heap
// access outside the cost model or interior pointers into allocated
// objects. A raw access charges no cycles, counts no statistic and emits
// no trace event, so data built with it costs a later Run nothing: the
// paper's kernel-only timings (Table 2's non-W rows) are a raw build
// followed by a timed Run. Everything here exists so that
// "compiled" benchmark code never unpacks or does arithmetic on global
// pointer encodings itself — internal/analysis's heap-escape check
// enforces exactly that boundary.

// FieldPtr forms an interior pointer off bytes into the object g — the
// address arithmetic the compiler would emit for &g->field or &g[i].
// The result stays on g's processor; FieldPtr panics on nil.
func FieldPtr(g gaddr.GP, off uint32) gaddr.GP {
	if g.IsNil() {
		panic("rt: FieldPtr of nil pointer")
	}
	return g.Add(off)
}

// RawAlloc allocates on a processor without charging anything.
func (r *Runtime) RawAlloc(proc int, nbytes uint32) gaddr.GP {
	if proc < 0 || proc >= r.P() {
		panic(fmt.Sprintf("rt: RawAlloc on processor %d of %d", proc, r.P()))
	}
	return r.M.Procs[proc].Heap.Alloc(nbytes)
}

// RawLoad reads the word at byte offset off of object g without charging
// anything.
func (r *Runtime) RawLoad(g gaddr.GP, off uint32) uint64 {
	a := g.Add(off)
	return r.M.Procs[a.Proc()].Heap.LoadWord(a.Off())
}

// RawStore writes the word at byte offset off of object g without
// charging anything.
func (r *Runtime) RawStore(g gaddr.GP, off uint32, v uint64) {
	a := g.Add(off)
	r.M.Procs[a.Proc()].Heap.StoreWord(a.Off(), v)
}

// RawLoadPtr reads a global-pointer field without charging anything.
func (r *Runtime) RawLoadPtr(g gaddr.GP, off uint32) gaddr.GP {
	return gaddr.GP(r.RawLoad(g, off))
}

// RawStorePtr writes a global-pointer field without charging anything.
func (r *Runtime) RawStorePtr(g gaddr.GP, off uint32, v gaddr.GP) {
	r.RawStore(g, off, uint64(v))
}
