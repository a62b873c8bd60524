package rt

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/coherence"
	"repro/internal/gaddr"
	"repro/internal/machine"
	"repro/internal/mem"
)

// TestHeapExhaustionPanics checks the failure mode of an undersized heap
// section carries a sizing hint.
func TestHeapExhaustionPanics(t *testing.T) {
	r := New(Config{Procs: 1, HeapBytesPerProc: 2 * gaddr.PageBytes})
	defer func() {
		ex, ok := recover().(*mem.ExhaustedError)
		if !ok {
			t.Fatal("expected a heap exhaustion panic")
		}
		if !strings.Contains(ex.Error(), "HeapBytesPerProc") {
			t.Fatalf("panic lacks a sizing hint: %v", ex)
		}
	}()
	r.Run(0, func(th *Thread) {
		for i := 0; i < 10_000; i++ {
			th.Alloc(0, 512)
		}
	})
}

// A Spawn body that uses the parent thread it closed over syncs the
// parent's scheduler entry. The body starts once the parent's clock passes
// its own, with the parent runnable on the heap, or once the parent parks
// on the touch, off the heap like the running entry but marked apart from
// it: either way the scheduler panics by name at that first Sync instead
// of corrupting its heap.
func TestSpawnBodyUsingParentPanics(t *testing.T) {
	for _, c := range []struct {
		parent     string
		parentWork int64
	}{{"runnable", 1000}, {"parked", 0}} {
		t.Run(c.parent, func(t *testing.T) {
			r := New(Config{Procs: 1})
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "Sync of a runnable, parked or exited entry") {
					t.Fatalf("panic = %q; want the scheduler's Sync panic", msg)
				}
			}()
			r.Run(0, func(th *Thread) {
				f := Spawn(th, func(*Thread) int { th.Work(1); return 0 })
				th.Work(c.parentWork)
				f.Touch(th)
			})
		})
	}
}

// TestDeepCallWriteSets checks the per-frame write masks merge up through
// deep call chains: a return to an ancestor invalidates homes written by
// any nested call.
func TestDeepCallWriteSets(t *testing.T) {
	r := New(Config{Procs: 4, HeapBytesPerProc: 1 << 20})
	sc := &Site{Name: "deep.cache", Mech: Cache}
	r.Run(0, func(th *Thread) {
		g := th.Alloc(3, 8)
		th.LoadInt(sc, g, 0) // cache the line at 0
		CallVoid(th, func() {
			CallVoid(th, func() {
				CallVoid(th, func() {
					th.MigrateTo(1)
					th.StoreInt(sc, g, 0, 9) // writes processor 3's memory
				})
			})
		})
		// The outermost return must have invalidated processor 3's
		// lines in our cache.
		before := r.M.Stats.Misses
		if v := th.LoadInt(sc, g, 0); v != 9 {
			t.Fatalf("stale read %d after nested-call writes", v)
		}
		if r.M.Stats.Misses == before {
			t.Fatal("read should have missed: line was written during the call")
		}
	})
}

// TestFutureChains stress-tests chained futures: each child spawns its own
// child, forming a dependency chain across processors.
func TestFutureChains(t *testing.T) {
	const procs = 8
	r := New(Config{Procs: procs, HeapBytesPerProc: 1 << 20})
	total := r.Run(0, func(th *Thread) {
		var spawn func(t *Thread, depth int) *Future[int64]
		spawn = func(t *Thread, depth int) *Future[int64] {
			return Spawn(t, func(c *Thread) int64 {
				c.MigrateTo(depth % procs)
				c.Work(100)
				if depth == 0 {
					return 1
				}
				f := spawn(c, depth-1)
				return f.Touch(c) + 1
			})
		}
		if got := spawn(th, 20).Touch(th); got != 21 {
			t.Fatalf("chain result %d", got)
		}
	})
	if total < 2100 {
		t.Fatalf("makespan %d too small for a 21-link chain", total)
	}
}

// TestManyConcurrentFutures checks a wide fan-out drains correctly and
// work conservation holds.
func TestManyConcurrentFutures(t *testing.T) {
	const procs = 8
	const fan = 200
	r := New(Config{Procs: procs, HeapBytesPerProc: 1 << 20})
	r.Run(0, func(th *Thread) {
		futs := make([]*Future[int], fan)
		for i := range futs {
			i := i
			futs[i] = Spawn(th, func(c *Thread) int {
				c.MigrateTo(i % procs)
				c.Work(50)
				return i
			})
		}
		sum := 0
		for _, f := range futs {
			sum += f.Touch(th)
		}
		if sum != fan*(fan-1)/2 {
			t.Fatalf("sum = %d", sum)
		}
	})
	if busy := r.M.TotalBusy(); busy < fan*50 {
		t.Fatalf("busy %d; work not conserved", busy)
	}
}

// TestTwoThreadNonInterference is the Olden futures contract under random
// schedules: two futures write disjoint random slots; after touching both,
// the parent must observe every write under every scheme.
func TestTwoThreadNonInterference(t *testing.T) {
	for _, scheme := range []coherence.Kind{coherence.LocalKnowledge, coherence.GlobalKnowledge, coherence.Bilateral} {
		t.Run(scheme.String(), func(t *testing.T) {
			const procs = 4
			const slots = 64
			r := New(Config{Procs: procs, Scheme: scheme, HeapBytesPerProc: 1 << 20})
			sc := &Site{Name: "ni.cache", Mech: Cache}
			rng := rand.New(rand.NewSource(11))
			r.Run(0, func(th *Thread) {
				obj := th.Alloc(3, slots*8)
				// Parent caches the whole object first (so stale
				// copies exist to invalidate).
				for i := 0; i < slots; i++ {
					th.LoadInt(sc, obj, uint32(8*i))
				}
				// Disjoint halves, random order and processors.
				mk := func(lo, hi, proc int, seed int64) *Future[int] {
					return Spawn(th, func(c *Thread) int {
						lr := rand.New(rand.NewSource(seed))
						c.MigrateTo(proc)
						for _, i := range lr.Perm(hi - lo) {
							c.StoreInt(sc, obj, uint32(8*(lo+i)), int64(100+lo+i))
						}
						return 0
					})
				}
				f1 := mk(0, slots/2, 1+rng.Intn(3), 21)
				f2 := mk(slots/2, slots, 1+rng.Intn(3), 22)
				f1.Touch(th)
				f2.Touch(th)
				for i := 0; i < slots; i++ {
					if v := th.LoadInt(sc, obj, uint32(8*i)); v != int64(100+i) {
						t.Fatalf("slot %d = %d; stale under %v", i, v, scheme)
					}
				}
			})
		})
	}
}

// TestSchedulerStressQuick drives many random thread interleavings through
// the scheduler, checking work conservation.
func TestSchedulerStressQuick(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		const procs = 4
		r := New(Config{Procs: procs, HeapBytesPerProc: 1 << 20})
		var want int64
		var mu sync.Mutex
		r.Run(0, func(th *Thread) {
			var futs []*Future[int]
			n := 5 + rng.Intn(20)
			for i := 0; i < n; i++ {
				w := int64(10 + rng.Intn(500))
				p := rng.Intn(procs)
				mu.Lock()
				want += w
				mu.Unlock()
				futs = append(futs, Spawn(th, func(c *Thread) int {
					c.MigrateTo(p)
					c.Work(w)
					return 0
				}))
			}
			for _, f := range futs {
				f.Touch(th)
			}
		})
		if busy := r.M.TotalBusy(); busy < want {
			t.Fatalf("trial %d: busy %d < charged work %d", trial, busy, want)
		}
	}
}

// TestCostModelAccessors pins the helper arithmetic.
func TestCostModelAccessors(t *testing.T) {
	c := machine.DefaultCost()
	if c.MissTotal() != c.MissRequest+c.MissService+c.MissReply {
		t.Fatal("MissTotal wrong")
	}
	if c.MigrateTotal() != c.MigrateSend+c.MigrateNet+c.MigrateRecv {
		t.Fatal("MigrateTotal wrong")
	}
}
