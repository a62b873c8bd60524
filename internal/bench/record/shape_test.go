package record

import (
	"fmt"
	"testing"
)

// pinned is the committed BENCH_*.json suite keyed by benchmark, with a
// record accessor that fails the test on a missing configuration.
type pinned map[string]File

func (p pinned) run(t *testing.T, bench, key string) RunRecord {
	t.Helper()
	r, ok := p[bench].Lookup(key)
	if !ok {
		t.Fatalf("%s: no pinned record %q", bench, key)
	}
	return r
}

// slowdown is bench's migrate-only cycles over its heuristic cycles at P=4
// under local knowledge: Table 2's M-only column against its Olden column.
func (p pinned) slowdown(t *testing.T, bench string) float64 {
	t.Helper()
	m := p.run(t, bench, MigrateOnlyKey(4, "local"))
	h := p.run(t, bench, HeuristicKey(4, "local"))
	return float64(m.Cycles) / float64(h.Cycles)
}

var schemes = []string{"local", "global", "bilateral"}

// deviation is a paper claim the pinned runs contradict today. holds
// reports whether the contradiction is still there, with the numbers.
type deviation struct {
	claim string
	holds func(t *testing.T, p pinned) (bool, string)
}

// knownDeviations are the paper's scale-independent claims the P=4 pins
// miss; DESIGN.md §7 names both. TestPinnedShape requires each to still
// hold, so the run that fixes one must delete its entry.
var knownDeviations = []deviation{
	{
		// Pinned: global 7 594 misses, local 6 601.
		claim: "Table 3: barneshut misses no more under global knowledge than under local (0.563 % vs 0.815 %)",
		holds: func(t *testing.T, p pinned) (bool, string) {
			g := p.run(t, "barneshut", HeuristicKey(4, "global")).Stats.Misses
			l := p.run(t, "barneshut", HeuristicKey(4, "local")).Stats.Misses
			return g > l, fmt.Sprintf("global %d misses, local %d", g, l)
		},
	},
	{
		// Pinned: 1 187 270 / 758 836 = 1.56.
		claim: "Table 2: health's migrate-only run is a wash with its heuristic run (16.52 vs 16.42)",
		holds: func(t *testing.T, p pinned) (bool, string) {
			s := p.slowdown(t, "health")
			return s > 1.1, fmt.Sprintf("migrate-only is %.2fx the heuristic's cycles", s)
		},
	},
}

// TestPinnedShape asserts, over the committed BENCH_*.json files, the
// paper's claims that do not depend on scale and hold at P=4, and that the
// claims they miss are still exactly knownDeviations.
func TestPinnedShape(t *testing.T) {
	files, err := LoadDir("../../..")
	if err != nil {
		t.Fatal(err)
	}
	p := pinned{}
	for _, f := range files {
		p[f.Benchmark] = f
	}

	// Table 2's dash: the migrate-only kernels choose migration everywhere,
	// so forcing it changes nothing, and nothing is ever cached.
	for _, b := range []string{"treeadd", "power", "tsp", "mst"} {
		if s := p.slowdown(t, b); s != 1 {
			t.Errorf("%s: migrate-only is %.4fx the heuristic's cycles, want identical runs", b, s)
		}
		for _, r := range p[b].Records {
			if r.Stats.CacheableReads != 0 || r.Stats.CacheableWrites != 0 {
				t.Errorf("%s %s: %d cacheable reads, %d writes; want none", b, r.Key(),
					r.Stats.CacheableReads, r.Stats.CacheableWrites)
			}
		}
	}

	// Table 3's zero rows, and em3d's one miss rate under every scheme.
	for _, b := range []string{"em3d", "perimeter"} {
		for _, s := range schemes {
			if w := p.run(t, b, HeuristicKey(4, s)).Stats.CacheableWrites; w != 0 {
				t.Errorf("%s under %s: %d cacheable writes, want 0", b, s, w)
			}
		}
	}
	var em3d []int64
	for _, s := range schemes {
		em3d = append(em3d, p.run(t, "em3d", HeuristicKey(4, s)).Stats.Misses)
	}
	if em3d[0] != em3d[1] || em3d[1] != em3d[2] {
		t.Errorf("em3d misses %v under %v, want one count (the paper prints 6.18 %% three times)", em3d, schemes)
	}

	// The migrate-only collapse ordering: voronoi, em3d and barneshut lose
	// far more without caching than bisort and perimeter do.
	for _, hi := range []string{"voronoi", "em3d", "barneshut"} {
		for _, lo := range []string{"bisort", "perimeter"} {
			if sh, sl := p.slowdown(t, hi), p.slowdown(t, lo); sh <= sl {
				t.Errorf("migrate-only slowdown: %s %.2f, %s %.2f; want %s's larger", hi, sh, lo, sl, hi)
			}
		}
	}

	for _, d := range knownDeviations {
		if ok, got := d.holds(t, p); !ok {
			t.Errorf("known deviation no longer holds (%s): %s; delete it from knownDeviations and DESIGN.md §7", got, d.claim)
		} else {
			t.Logf("known deviation: %s; pinned: %s", d.claim, got)
		}
	}
}
