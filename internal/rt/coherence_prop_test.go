package rt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/coherence"
	"repro/internal/gaddr"
)

// TestReadAfterWriteAllSchemes drives long random access strings — allocs,
// reads and writes at randomly-mechanized sites, migrations, and CallVoid
// frames nested up to three deep, whose return stubs take the thread home —
// through every coherence scheme and mode, checking each read against a
// shadow model. This exercises line fetches, write-through, full flushes,
// sharer invalidations, timestamp checks and the local-knowledge return
// rule on one thread, where sequential consistency degenerates to
// read-your-writes. Each string runs under several seeds, so that a broken
// rule is caught by more than one of them.
func TestReadAfterWriteAllSchemes(t *testing.T) {
	schemes := []coherence.Kind{coherence.LocalKnowledge, coherence.GlobalKnowledge, coherence.Bilateral}
	modes := []Mode{Heuristic, MigrateOnly, CacheOnly}
	for _, scheme := range schemes {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%v/%v", scheme, mode), func(t *testing.T) {
				for seed := int64(1); seed <= 12; seed++ {
					if err := readAfterWrite(scheme, mode, seed); err != nil {
						t.Errorf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}

// readAfterWrite runs one seeded access string and returns its first read
// that disagrees with the shadow model.
func readAfterWrite(scheme coherence.Kind, mode Mode, seed int64) error {
	const (
		procs    = 4
		steps    = 3000 // top-level operations
		maxDepth = 3    // CallVoid frames open at once
	)
	sites := []*Site{
		{Name: "prop.m", Mech: Migrate},
		{Name: "prop.c", Mech: Cache},
	}
	r := New(Config{Procs: procs, Scheme: scheme, Mode: mode, HeapBytesPerProc: 1 << 22})
	rng := rand.New(rand.NewSource(seed))
	shadow := map[gaddr.GP]uint64{}
	var bad error
	r.Run(0, func(th *Thread) {
		// Eight one-line objects: few enough that a line cached before a
		// call is read again soon after its return stub.
		var objs []gaddr.GP
		for i := 0; i < 8; i++ {
			objs = append(objs, th.Alloc(rng.Intn(procs), 64))
		}
		var op func(depth int)
		op = func(depth int) {
			g := objs[rng.Intn(len(objs))]
			off := uint32(rng.Intn(8)) * 8
			s := sites[rng.Intn(len(sites))]
			switch k := rng.Intn(6); {
			case k == 0: // write
				v := rng.Uint64()
				th.StoreWord(s, g, off, v)
				shadow[g.Add(off)] = v
			case k == 1: // explicit migration
				th.MigrateTo(rng.Intn(procs))
			case k == 2 && depth < maxDepth: // a call, which returns home
				CallVoid(th, func() {
					for n := 1 + rng.Intn(4); n > 0 && bad == nil; n-- {
						op(depth + 1)
					}
				})
			default: // read
				if got, want := th.LoadWord(s, g, off), shadow[g.Add(off)]; got != want {
					bad = fmt.Errorf("read %v+%d via %s at depth %d = %#x; want %#x",
						g, off, s.Name, depth, got, want)
				}
			}
		}
		for i := 0; i < steps && bad == nil; i++ {
			op(0)
		}
	})
	return bad
}

// TestParallelDisjointWrites checks the futures contract the paper relies
// on: concurrent threads touch disjoint data, and after the touches the
// parent observes every child's writes regardless of scheme.
func TestParallelDisjointWrites(t *testing.T) {
	for _, scheme := range []coherence.Kind{coherence.LocalKnowledge, coherence.GlobalKnowledge, coherence.Bilateral} {
		t.Run(scheme.String(), func(t *testing.T) {
			const procs = 8
			r := New(Config{Procs: procs, Scheme: scheme, HeapBytesPerProc: 1 << 20})
			r.Run(0, func(th *Thread) {
				objs := make([]gaddr.GP, procs)
				for p := range objs {
					objs[p] = th.Alloc(p, 32)
				}
				var futs []*Future[int]
				for p := 0; p < procs; p++ {
					p := p
					futs = append(futs, Spawn(th, func(c *Thread) int {
						// Each child migrates to its processor and
						// fills its object.
						for w := uint32(0); w < 4; w++ {
							c.StoreInt(siteMig, objs[p], w*8, int64(100*p)+int64(w))
						}
						return p
					}))
				}
				for _, f := range futs {
					f.Touch(th)
				}
				// Parent reads everything back through the cache.
				for p := 0; p < procs; p++ {
					for w := uint32(0); w < 4; w++ {
						got := th.LoadInt(siteCache, objs[p], w*8)
						if want := int64(100*p) + int64(w); got != want {
							t.Fatalf("obj %d word %d = %d; want %d", p, w, got, want)
						}
					}
				}
			})
		})
	}
}
