// Package mst implements the MST benchmark: Bentley's parallel minimum-
// spanning-tree algorithm (paper Table 1: 1K nodes). Vertices are
// distributed across processors, each keeping its current distance to the
// growing tree; each phase applies the blue rule — every processor scans
// its local vertices against the most recently added vertex, the global
// minimum joins the tree.
//
// Heuristic choice (Table 2: M): MST is one of the three benchmarks with
// explicit path-affinity hints; the per-processor vertex lists are fully
// local (affinity 100), so the scan loops migrate, and the phase fan-out is
// parallelizable. Performance is poor and degrades with P because the
// number of migrations is O(N·P) and they "serve mostly as a mechanism for
// synchronization"; caching would not help.
package mst

import (
	"repro/internal/bench"
	"repro/internal/gaddr"
	"repro/internal/rt"
)

// Vertex layout: id @0, dist @8, next @16.
const (
	offID   = 0
	offDist = 8
	offNext = 16
	vertSz  = 24
)

const (
	paperVerts = 1024
	infinity   = int64(1) << 60
	scanWork   = 300 // per-vertex hash-table lookup + compare per phase
	// (the paper: 9.81s sequential for 1K vertices at 33 MHz ≈ 310 cycles/vertex/phase)
	phaseWork = 60 // per-phase bookkeeping at the coordinator
)

// weight is the deterministic pseudo-random edge weight between two
// vertices (the Olden benchmark computes weights with a hash function too).
func weight(a, b int64) int64 {
	if a > b {
		a, b = b, a
	}
	x := uint64(a)*2654435761 ^ uint64(b)*40503
	x ^= x >> 15
	x *= 2246822519
	x ^= x >> 13
	return int64(x%2048) + 1
}

// KernelSource is the kernel in the mini-C subset. The vertex lists carry
// an explicit 100% path-affinity (they are built fully local), so the blue
// rule's scan migrates — making MST migration-only, as in Table 2.
const KernelSource = `
struct vertex {
  int id;
  int dist;
  struct vertex *next __affinity(100);
};
struct plist {
  struct vertex *verts __affinity(0);
  struct plist *next __affinity(0);
};

int BlueRule(struct vertex *l, int last) {
  int best = 100000000;
  while (l) {
    l->dist = l->dist;
    if (l->dist < best) best = l->dist;
    l = l->next;
  }
  return best;
}

void DoAllBlueRule(struct plist *p, int last) {
  while (p) {
    futurecall(BlueRule(p->verts, last));
    p = p->next;
  }
}
`

func init() {
	bench.Register(bench.Info{
		Name:        "mst",
		Description: "Computes the minimum spanning tree of a graph",
		PaperSize:   "1K nodes",
		Choice:      "M",
		Source:      KernelSource,
		Phased:      &bench.Phased{Build: buildPhase, Kernel: kernelPhase},
	})
}

// reference is sequential Prim's algorithm over the same weight function.
func reference(n int) uint64 {
	dist := make([]int64, n)
	in := make([]bool, n)
	for i := range dist {
		dist[i] = infinity
	}
	in[0] = true
	last := int64(0)
	var total int64
	for added := 1; added < n; added++ {
		best, bestI := infinity, -1
		for i := 1; i < n; i++ {
			if in[i] {
				continue
			}
			if w := weight(int64(i), last); w < dist[i] {
				dist[i] = w
			}
			if dist[i] < best {
				best, bestI = dist[i], i
			}
		}
		in[bestI] = true
		last = int64(bestI)
		total += best
	}
	return uint64(total)
}

type scanResult struct {
	dist int64
	id   int64
}

// built is the immutable build-phase state: the per-processor list
// heads, the problem size and the precomputed reference weight.
type built struct {
	heads []gaddr.GP
	n     int
	want  uint64
}

// buildPhase materializes the vertex lists through the raw heap API.
func buildPhase(cfg bench.Config, r *rt.Runtime) any {
	n := cfg.Scaled(paperVerts, 512)

	// Build per-processor vertex lists (vertex 0, the root of the tree,
	// is excluded — it is already "in").
	heads := make([]gaddr.GP, r.P())
	for i := n - 1; i >= 1; i-- {
		p := bench.BlockedProc(i, n, r.P())
		v := r.RawAlloc(p, vertSz)
		r.RawStore(v, offID, uint64(i))
		r.RawStore(v, offDist, uint64(infinity))
		r.RawStorePtr(v, offNext, heads[p])
		heads[p] = v
	}

	return &built{heads: heads, n: n, want: reference(n)}
}

// kernelPhase times the Prim phases and verifies the total weight.
func kernelPhase(cfg bench.Config, r *rt.Runtime, st any) bench.Result {
	b := st.(*built)
	heads, n := b.heads, b.n

	siteV := &rt.Site{Name: "mst.vertex", Mech: rt.Migrate}

	// blueRule scans one processor's vertices: relax against the vertex
	// added last phase, skip the one just inserted, and return the
	// local minimum.
	blueRule := func(t *rt.Thread, head gaddr.GP, last int64, taken int64) scanResult {
		best := scanResult{dist: infinity, id: -1}
		for v := head; !v.IsNil(); v = t.LoadPtr(siteV, v, offNext) {
			id := t.LoadInt(siteV, v, offID)
			d := t.LoadInt(siteV, v, offDist)
			t.Work(scanWork)
			if d < 0 {
				continue // already in the tree
			}
			if id == taken {
				t.StoreInt(siteV, v, offDist, -1)
				continue
			}
			if w := weight(id, last); w < d {
				d = w
				t.StoreInt(siteV, v, offDist, d)
			}
			if d < best.dist {
				best = scanResult{dist: d, id: id}
			}
		}
		return best
	}

	var total int64
	r.Run(0, func(t *rt.Thread) {
		last, taken := int64(0), int64(-1)
		for added := 1; added < n; added++ {
			t.Work(phaseWork)
			var phaseBest scanResult
			phaseBest.dist = infinity
			phaseBest.id = -1
			if cfg.Baseline {
				for p := 0; p < r.P(); p++ {
					if heads[p].IsNil() {
						continue
					}
					res := blueRule(t, heads[p], last, taken)
					if res.dist < phaseBest.dist {
						phaseBest = res
					}
				}
			} else {
				var futs []*rt.Future[scanResult]
				for p := 0; p < r.P(); p++ {
					if heads[p].IsNil() {
						continue
					}
					head := heads[p]
					l, tk := last, taken
					futs = append(futs, rt.Spawn(t, func(c *rt.Thread) scanResult {
						return blueRule(c, head, l, tk)
					}))
				}
				for _, f := range futs {
					if res := f.Touch(t); res.dist < phaseBest.dist {
						phaseBest = res
					}
				}
			}
			total += phaseBest.dist
			taken = phaseBest.id
			last = phaseBest.id
		}
		// The final chosen vertex still needs its "taken" marking for
		// bookkeeping symmetry, but no phase follows.
	})

	return bench.Result{
		Name:      "mst",
		Procs:     r.P(),
		Cycles:    r.M.Makespan(),
		Stats:     r.M.Stats,
		Pages:     r.PagesCachedTotal(),
		Check:     uint64(total),
		WantCheck: b.want,
	}
}
