package tsp

import (
	"math"

	"repro/internal/bench"
	"repro/internal/gaddr"
	"repro/internal/rt"
)

// City layout: x @0, y @8, left @16, right @24, next @32, prev @40,
// id @48.
const (
	offX     = 0
	offY     = 8
	offLeft  = 16
	offRight = 24
	offNext  = 32
	offPrev  = 40
	offID    = 48
	citySz   = 56
)

const (
	paperCities = 1<<15 - 1 // 32K cities
	conquerSize = 150       // subtree size toured greedily (as in the Olden source)
	distWork    = 25        // per distance evaluation
	nodeWork    = 20        // per recursion node
	futureCost  = 38
)

// KernelSource is the kernel in the mini-C subset, with the explicit
// high-affinity hints on tree and tour pointers that make TSP an "M"
// benchmark.
const KernelSource = `
struct city {
  float x;
  float y;
  struct city *left __affinity(90);
  struct city *right __affinity(90);
  struct city *next __affinity(95);
  struct city *prev;
};

struct city * merge(struct city *a, struct city *b, struct city *t) {
  struct city *p = a;
  while (p->next != a) {
    p = p->next;
  }
  return a;
}

struct city * tsp(struct city *t, int sz) {
  struct city *a;
  struct city *b;
  if (sz < 150) return conquer(t);
  a = touch(futurecall(tsp(t->left, sz / 2)));
  b = tsp(t->right, sz / 2);
  return merge(a, b, t);
}
`

func init() {
	bench.Register(bench.Info{
		Name:        "tsp",
		Description: "Computes an estimate of the best hamiltonian circuit for the Traveling-salesman problem",
		PaperSize:   "32K cities",
		Choice:      "M",
		Source:      KernelSource,
		Phased:      &bench.Phased{Build: buildPhase, Kernel: kernelPhase},
	})
}

type state struct {
	site       *rt.Site // everything migrates in TSP
	parallel   bool
	spawnDepth int
}

// materialize copies the reference tree into the distributed heap,
// spreading subtrees at the top of the tree, and returns the heap root.
func materialize(r *rt.Runtime, t *refCity, proc, stride int, nodes map[*refCity]gaddr.GP) gaddr.GP {
	if t == nil {
		return gaddr.Nil
	}
	n := r.RawAlloc(proc, citySz)
	nodes[t] = n
	r.RawStore(n, offX, math.Float64bits(t.x))
	r.RawStore(n, offY, math.Float64bits(t.y))
	r.RawStore(n, offID, uint64(t.id))
	rp := proc
	if stride > 1 {
		rp = proc + stride/2
	}
	r.RawStorePtr(n, offLeft, materialize(r, t.l, proc, stride/2, nodes))
	r.RawStorePtr(n, offRight, materialize(r, t.r, rp, stride/2, nodes))
	return n
}

// cityView caches a city's coordinates after one load pair.
type cityView struct {
	g    gaddr.GP
	x, y float64
}

func (s *state) view(t *rt.Thread, g gaddr.GP) cityView {
	return cityView{
		g: g,
		x: t.LoadFloat(s.site, g, offX),
		y: t.LoadFloat(s.site, g, offY),
	}
}

func (s *state) dist(t *rt.Thread, a, b cityView) float64 {
	t.Work(distWork)
	dx, dy := a.x-b.x, a.y-b.y
	return math.Sqrt(dx*dx + dy*dy)
}

// collect gathers a subtree's cities in order (the conquer step's working
// set; everything is local to the subtree's processor).
func (s *state) collect(t *rt.Thread, g gaddr.GP, out *[]cityView) {
	if g.IsNil() {
		return
	}
	s.collect(t, t.LoadPtr(s.site, g, offLeft), out)
	*out = append(*out, s.view(t, g))
	s.collect(t, t.LoadPtr(s.site, g, offRight), out)
}

// conquer tours a small subtree by greedy nearest neighbor.
func (s *state) conquer(t *rt.Thread, root gaddr.GP) gaddr.GP {
	var cities []cityView
	s.collect(t, root, &cities)
	visited := map[gaddr.GP]bool{root: true}
	cur := cities[0]
	for _, c := range cities {
		if c.g == root {
			cur = c
			break
		}
	}
	start := cur
	for i := 1; i < len(cities); i++ {
		best := cityView{}
		bestD := math.Inf(1)
		for _, c := range cities {
			if visited[c.g] {
				continue
			}
			if d := s.dist(t, cur, c); d < bestD {
				bestD, best = d, c
			}
		}
		t.StorePtr(s.site, cur.g, offNext, best.g)
		t.StorePtr(s.site, best.g, offPrev, cur.g)
		visited[best.g] = true
		cur = best
	}
	t.StorePtr(s.site, cur.g, offNext, start.g)
	t.StorePtr(s.site, start.g, offPrev, cur.g)
	return root
}

// merge splices tours a and b together through the divide node t; the
// walks migrate along the tours ("a migration for each participating
// processor").
func (s *state) merge(t *rt.Thread, a, b, mid gaddr.GP) gaddr.GP {
	tv := s.view(t, mid)

	bestP := s.view(t, a)
	bestCost := math.Inf(1)
	p := s.view(t, a)
	for {
		q := s.view(t, t.LoadPtr(s.site, p.g, offNext))
		cost := s.dist(t, p, tv) + s.dist(t, tv, q) - s.dist(t, p, q)
		if cost < bestCost {
			bestCost, bestP = cost, p
		}
		p = q
		if p.g == a {
			break
		}
	}
	tNext := s.view(t, t.LoadPtr(s.site, bestP.g, offNext))
	t.StorePtr(s.site, bestP.g, offNext, mid)
	t.StorePtr(s.site, mid, offPrev, bestP.g)
	t.StorePtr(s.site, mid, offNext, tNext.g)
	t.StorePtr(s.site, tNext.g, offPrev, mid)

	bestB := s.view(t, b)
	bestCost = math.Inf(1)
	p = s.view(t, b)
	for {
		q := s.view(t, t.LoadPtr(s.site, p.g, offNext))
		cost := s.dist(t, tv, q) + s.dist(t, p, tNext) - s.dist(t, p, q)
		if cost < bestCost {
			bestCost, bestB = cost, p
		}
		p = q
		if p.g == b {
			break
		}
	}
	q := s.view(t, t.LoadPtr(s.site, bestB.g, offNext))
	t.StorePtr(s.site, mid, offNext, q.g)
	t.StorePtr(s.site, q.g, offPrev, mid)
	t.StorePtr(s.site, bestB.g, offNext, tNext.g)
	t.StorePtr(s.site, tNext.g, offPrev, bestB.g)
	return mid
}

// tsp is the divide-and-conquer driver.
func (s *state) tsp(t *rt.Thread, root gaddr.GP, sz, depth int) gaddr.GP {
	t.Work(nodeWork)
	if sz <= conquerSize {
		return s.conquer(t, root)
	}
	left := t.LoadPtr(s.site, root, offLeft)
	right := t.LoadPtr(s.site, root, offRight)
	half := sz / 2
	var a, b gaddr.GP
	if s.parallel && depth < s.spawnDepth {
		f := rt.Spawn(t, func(c *rt.Thread) gaddr.GP {
			return s.tsp(c, left, half, depth+1)
		})
		b = rt.Call(t, func() gaddr.GP { return s.tsp(t, right, half, depth+1) })
		a = f.Touch(t)
	} else {
		if s.parallel {
			t.Work(futureCost)
		}
		a = rt.Call(t, func() gaddr.GP { return s.tsp(t, left, half, depth+1) })
		b = rt.Call(t, func() gaddr.GP { return s.tsp(t, right, half, depth+1) })
	}
	return rt.Call(t, func() gaddr.GP { return s.merge(t, a, b, root) })
}

// built is the immutable build-phase state: the materialized city tree,
// the problem size and the precomputed reference checksum.
type built struct {
	root      gaddr.GP
	n         int
	distDepth int
	want      uint64
}

// buildPhase generates and materializes the city tree through the raw
// heap API; the reference tour is pure host arithmetic, so it belongs
// to the build too.
func buildPhase(cfg bench.Config, r *rt.Runtime) any {
	n := cfg.Scaled(paperCities, 511)
	// Round to 2^k − 1 so median splits stay perfect.
	k := 0
	for (1<<uint(k+1))-1 <= n {
		k++
	}
	n = (1 << uint(k)) - 1

	pts := genPoints(n)
	refRoot := buildTree(pts, 0)
	nodes := map[*refCity]gaddr.GP{}
	root := materialize(r, refRoot, 0, r.P(), nodes)

	distDepth := 0
	for 1<<uint(distDepth) < r.P() {
		distDepth++
	}
	return &built{root: root, n: n, distDepth: distDepth,
		want: reference(n, conquerSize)}
}

// kernelPhase times the closest-point merge and verifies the tour.
func kernelPhase(cfg bench.Config, r *rt.Runtime, st any) bench.Result {
	b := st.(*built)
	root, n := b.root, b.n
	s := &state{
		site:       &rt.Site{Name: "tsp.city", Mech: rt.Migrate},
		parallel:   !cfg.Baseline,
		spawnDepth: b.distDepth + 2,
	}

	var check uint64
	var cycles int64
	r.Run(0, func(t *rt.Thread) {
		rep := rt.Call(t, func() gaddr.GP { return s.tsp(t, root, n, 0) })
		cycles = r.M.Makespan() // checksum walk below is not program time
		h := uint64(1469598103934665603)
		mix := func(v uint64) {
			h ^= v
			h *= 1099511628211
		}
		var length float64
		pv := s.view(t, rep)
		start := rep
		for {
			mix(uint64(t.LoadInt(s.site, pv.g, offID)))
			nv := s.view(t, t.LoadPtr(s.site, pv.g, offNext))
			length += s.dist(t, pv, nv)
			pv = nv
			if pv.g == start {
				break
			}
		}
		mix(math.Float64bits(length))
		check = h
	})

	return bench.Result{
		Name:      "tsp",
		Procs:     r.P(),
		Cycles:    cycles,
		Stats:     r.M.Stats,
		Pages:     r.PagesCachedTotal(),
		Check:     check,
		WantCheck: b.want,
	}
}
