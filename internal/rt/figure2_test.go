package rt

import (
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/gaddr"
)

// Figure 2 of the paper: a list of N elements evenly divided among P
// processors. With a blocked layout, migration needs P−1 migrations while
// caching needs N(P−1)/P remote accesses; with a cyclic layout, migration
// needs N−1 migrations. These closed forms are the motivating example for
// the selection heuristic, and the runtime must reproduce the counts
// exactly.

const listNodeBytes = 16 // val (8) + next (8)

// buildList allocates an N-element list whose i-th node lives on
// procOf(i), linking node i to node i+1, and returns the head. It builds
// through the raw heap API, so the traversal that follows is the only
// thing the machine counts.
func buildList(r *Runtime, n int, procOf func(i int) int) gaddr.GP {
	nodes := make([]gaddr.GP, n)
	for i := 0; i < n; i++ {
		nodes[i] = r.RawAlloc(procOf(i), listNodeBytes)
	}
	for i := 0; i < n; i++ {
		r.RawStore(nodes[i], 0, uint64(i))
		next := gaddr.Nil
		if i+1 < n {
			next = nodes[i+1]
		}
		r.RawStorePtr(nodes[i], 8, next)
	}
	return nodes[0]
}

func traverse(t *Thread, head gaddr.GP, s *Site) int64 {
	var sum int64
	for g := head; !g.IsNil(); g = t.LoadPtr(s, g, 8) {
		sum += t.LoadInt(s, g, 0)
	}
	return sum
}

func TestFigure2Counts(t *testing.T) {
	const n, p = 64, 4
	blocked := func(i int) int { return i * p / n }
	cyclic := func(i int) int { return i % p }
	wantSum := int64(n * (n - 1) / 2)

	cases := []struct {
		name           string
		layout         func(int) int
		mech           Mechanism
		wantMigrations int64
		wantRemote     int64
	}{
		{"blocked/migrate", blocked, Migrate, p - 1, 0},
		{"cyclic/migrate", cyclic, Migrate, n - 1, 0},
		{"blocked/cache", blocked, Cache, 0, 2 * n * (p - 1) / p}, // val+next per remote node
		{"cyclic/cache", cyclic, Cache, 0, 2 * n * (p - 1) / p},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRT(p, coherence.LocalKnowledge)
			head := buildList(r, n, c.layout)
			r.Run(0, func(th *Thread) {
				site := &Site{Name: "list.walk", Mech: c.mech}
				if got := traverse(th, head, site); got != wantSum {
					t.Errorf("sum = %d; want %d", got, wantSum)
				}
			})
			s := r.M.Stats
			if s.Migrations != c.wantMigrations {
				t.Errorf("migrations = %d; want %d", s.Migrations, c.wantMigrations)
			}
			if got := s.RemoteReads + s.RemoteWrites; got != c.wantRemote {
				t.Errorf("remote refs = %d; want %d", got, c.wantRemote)
			}
		})
	}
}

func TestFigure2CrossoverCost(t *testing.T) {
	// The heuristic's rationale: for a blocked layout migration is
	// cheaper; for a cyclic layout caching is cheaper.
	const n, p = 256, 8
	cost := func(layout func(int) int, mech Mechanism) int64 {
		r := newRT(p, coherence.LocalKnowledge)
		head := buildList(r, n, layout)
		return r.Run(0, func(th *Thread) {
			traverse(th, head, &Site{Name: "fig2.walk", Mech: mech})
		})
	}
	blocked := func(i int) int { return i * p / n }
	cyclic := func(i int) int { return i % p }
	bm, bc := cost(blocked, Migrate), cost(blocked, Cache)
	cm, cc := cost(cyclic, Migrate), cost(cyclic, Cache)
	if bm >= bc {
		t.Errorf("blocked layout: migrate %d should beat cache %d", bm, bc)
	}
	if cc >= cm {
		t.Errorf("cyclic layout: cache %d should beat migrate %d", cc, cm)
	}
}

func TestDeterminism(t *testing.T) {
	// The virtual-time scheduler makes whole runs reproducible: the same
	// program yields the same makespan, bit for bit, every time.
	run := func() (int64, string) {
		r := newRT(4, coherence.LocalKnowledge)
		mk := r.Run(0, func(th *Thread) {
			var futs []*Future[int64]
			for p := 0; p < 4; p++ {
				p := p
				futs = append(futs, Spawn(th, func(c *Thread) int64 {
					c.MigrateTo(p)
					c.Work(int64(1000 * (p + 1)))
					g := c.Alloc(p, 16)
					c.StoreInt(siteCache, g, 0, int64(p))
					return c.LoadInt(siteCache, g, 0)
				}))
			}
			for _, f := range futs {
				f.Touch(th)
			}
		})
		return mk, fmt.Sprintf("%+v", r.M.Stats)
	}
	mk1, st1 := run()
	for i := 0; i < 5; i++ {
		mk2, st2 := run()
		if mk1 != mk2 || st1 != st2 {
			t.Fatalf("nondeterministic run %d: makespan %d vs %d\n%s\nvs\n%s", i, mk1, mk2, st1, st2)
		}
	}
}
