package voronoi

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/bench"
	"repro/internal/gaddr"
	"repro/internal/rt"
)

const (
	paperPoints = 64 << 10
	baseWork    = 40 // per base-case edge construction
	futureCost  = 38
)

// KernelSource is the kernel in the mini-C subset: the point-tree recursion
// migrates (and is parallelizable); the merge's hull walks cache (the
// onext rings alternate between the two sub-diagrams irregularly, so their
// affinity is low).
const KernelSource = `
struct edge {
  struct edge *onext __affinity(60);
  int org;
};
struct tree {
  struct tree *left __affinity(90);
  struct tree *right __affinity(90);
};

struct edge * merge(struct edge *a, struct edge *b) {
  struct edge *lcand = a;
  while (incircle(lcand) == 1) {
    lcand = lcand->onext;
  }
  return lcand;
}

struct edge * delaunay(struct tree *t) {
  struct edge *l;
  struct edge *r;
  if (t == NULL) return NULL;
  l = touch(futurecall(delaunay(t->left)));
  r = delaunay(t->right);
  return merge(l, r);
}
`

func init() {
	bench.Register(bench.Info{
		Name:        "voronoi",
		Description: "Computes the Voronoi Diagram of a set of points",
		PaperSize:   "64K points",
		Choice:      "M+C",
		Source:      KernelSource,
		Phased:      &bench.Phased{Build: buildPhase, Kernel: kernelPhase},
	})
}

// genSorted produces deterministic points and their x-sorted id order.
func genSorted(n int) (px, py []float64, ids []int32) {
	rng := rand.New(rand.NewSource(4242))
	px = make([]float64, n)
	py = make([]float64, n)
	ids = make([]int32, n)
	for i := range px {
		px[i] = rng.Float64()
		py[i] = rng.Float64()
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		i, j := ids[a], ids[b]
		if px[i] != px[j] {
			return px[i] < px[j]
		}
		return py[i] < py[j]
	})
	return px, py, ids
}

// checksum folds the triangulation's edge set, order-independently
// canonicalized.
func checksum(edges [][2]int32) uint64 {
	canon := make([][2]int32, len(edges))
	for i, e := range edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		canon[i] = [2]int32{a, b}
	}
	sort.Slice(canon, func(i, j int) bool {
		if canon[i][0] != canon[j][0] {
			return canon[i][0] < canon[j][0]
		}
		return canon[i][1] < canon[j][1]
	})
	h := uint64(1469598103934665603)
	for _, e := range canon {
		h ^= uint64(uint32(e[0]))<<32 | uint64(uint32(e[1]))
		h *= 1099511628211
	}
	return h
}

type state struct {
	procs      int
	st         *heapStore
	n          int
	parallel   bool
	spawnDepth int
}

// procOf maps an x-rank to its owner (points are blocked by x).
func (s *state) procOf(rank int) int { return bench.BlockedProc(rank, s.n, s.procs) }

// par is the parallel divide and conquer: migrate to the region's owner,
// solve halves (the left as a future), then merge pinned on this
// processor with cached reads of both subresults.
func (s *state) par(t *rt.Thread, ids []int32, lo, depth int) (edgeRef, edgeRef) {
	t.MigrateTo(s.procOf(lo))
	al := s.st.bind(t)
	if len(ids) <= 3 {
		t.Work(baseWork)
		return delaunayBase(al, ids)
	}
	m := len(ids) / 2
	var ldo, ldi, rdi, rdo edgeRef
	if s.parallel && depth < s.spawnDepth {
		f := rt.Spawn(t, func(c *rt.Thread) [2]edgeRef {
			a, b := s.par(c, ids[:m], lo, depth+1)
			return [2]edgeRef{a, b}
		})
		rdi, rdo = pair2(rt.Call(t, func() [2]edgeRef {
			a, b := s.par(t, ids[m:], lo+m, depth+1)
			return [2]edgeRef{a, b}
		}))
		ldo, ldi = pair2(f.Touch(t))
	} else {
		if s.parallel {
			t.Work(futureCost)
		}
		ldo, ldi = pair2(rt.Call(t, func() [2]edgeRef {
			a, b := s.par(t, ids[:m], lo, depth+1)
			return [2]edgeRef{a, b}
		}))
		rdi, rdo = pair2(rt.Call(t, func() [2]edgeRef {
			a, b := s.par(t, ids[m:], lo+m, depth+1)
			return [2]edgeRef{a, b}
		}))
	}
	// The merge runs pinned where this level entered; both sub-hull
	// walks reach remote edges through the cache.
	t.MigrateTo(s.procOf(lo))
	return delaunayMerge(al, ldo, ldi, rdi, rdo)
}

func pair2(v [2]edgeRef) (edgeRef, edgeRef) { return v[0], v[1] }

// built is the immutable build-phase state: the materialized points,
// the x-sorted id order, and the precomputed sequential reference.
type built struct {
	pts       []gaddr.GP
	ids       []int32
	n         int
	distDepth int
	want      uint64
}

// buildPhase generates and materializes the point set, and computes the
// sequential Delaunay reference on the plain-Go backend (pure host
// arithmetic, so it belongs to the build).
func buildPhase(cfg bench.Config, r *rt.Runtime) any {
	n := cfg.Scaled(paperPoints, 512)
	px, py, ids := genSorted(n)

	// Materialize the points, blocked by x-rank (untimed build phase:
	// Voronoi reports kernel time).
	pts := make([]gaddr.GP, n)
	for rank, id := range ids {
		p := bench.BlockedProc(rank, n, r.P())
		g := r.RawAlloc(p, pointRecSz)
		r.RawStore(g, 0, floatBits(px[id]))
		r.RawStore(g, 8, floatBits(py[id]))
		pts[id] = g
	}

	distDepth := 0
	for 1<<uint(distDepth) < r.P() {
		distDepth++
	}

	// Sequential reference on the plain-Go backend.
	ref := newMemAlg(px, py)
	delaunaySeq(ref, ids)

	return &built{pts: pts, ids: ids, n: n, distDepth: distDepth,
		want: checksum(ref.alive())}
}

// kernelPhase times the divide-and-conquer Delaunay merge. The edge
// store mirror is per-run state: the kernel allocates edges through it.
func kernelPhase(cfg bench.Config, r *rt.Runtime, st any) bench.Result {
	b := st.(*built)
	ids := b.ids
	site := &rt.Site{Name: "voronoi.edge", Mech: rt.Cache}
	s := &state{
		procs:      r.P(),
		st:         newHeapStore(site, b.pts),
		n:          b.n,
		parallel:   !cfg.Baseline,
		spawnDepth: b.distDepth + 2,
	}

	r.Run(0, func(t *rt.Thread) {
		rt.Call(t, func() [2]edgeRef {
			a, b := s.par(t, ids, 0, 0)
			return [2]edgeRef{a, b}
		})
	})

	return bench.Result{
		Name:      "voronoi",
		Procs:     r.P(),
		Cycles:    r.M.Makespan(),
		Stats:     r.M.Stats,
		Pages:     r.PagesCachedTotal(),
		Check:     checksum(s.st.bind(nil).aliveSafe()),
		WantCheck: b.want,
	}
}

// aliveSafe reads the mirror without needing a thread.
func (h *heapAlg) aliveSafe() [][2]int32 { return h.alive() }

func floatBits(v float64) uint64 { return math.Float64bits(v) }
