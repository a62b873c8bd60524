// Package power implements the Power benchmark: the Power System
// Optimization problem of Lumetta et al. (paper Table 1: 10,000
// customers). The power network is a fixed four-level tree — root feeders,
// laterals, branches, and customer leaves. Each pricing iteration sends
// prices down the tree; customers locally optimize their demand against
// the price; demands flow back up with line losses; the root adjusts the
// price toward a demand target.
//
// Heuristic choice (Table 2: M): a pure tree computation with large-grain
// subtrees — every dereference migrates, futures parallelize the feeder
// and lateral recursions, and speedup is near linear (the paper reports
// 27.5 at 32 processors whole-program, better than the Split-C
// implementation's 75% efficiency at 64).
package power

import (
	"math"

	"repro/internal/bench"
	"repro/internal/gaddr"
	"repro/internal/rt"
)

// Node layout: alpha @0, beta @8 (line coefficients), childCount @16,
// children pointers from @24. Leaves (customers) have childCount 0 and use
// alpha/beta as utility coefficients.
const (
	offAlpha    = 0
	offBeta     = 8
	offCount    = 16
	offChildren = 24
)

func nodeSize(children int) uint32 { return uint32(offChildren + 8*children) }

// Network shape (paper: 10 feeders × 20 laterals × 5 branches × 10 leaves
// = 10,000 customers).
const (
	paperFeeders = 10
	laterals     = 20
	branches     = 5
	leaves       = 10
	iterations   = 10
	demandTarget = 0.8 // per-customer target demand
	priceGamma   = 0.3 // root price adjustment step
)

// Work constants: customers run a small local optimization; interior nodes
// combine children and apply line losses.
const (
	leafWork    = 500
	interiorPer = 30
	futureCost  = 38
)

// KernelSource is the kernel in the mini-C subset: a multi-way tree
// recursion with futurecalls — migration everywhere (Table 2: M).
const KernelSource = `
struct node {
  float alpha;
  float beta;
  struct node *c0;
  struct node *c1;
  struct node *c2;
  struct node *c3;
};

float Compute(struct node *n, float price) {
  float d;
  if (n == NULL) return 0.0;
  d = touch(futurecall(Compute(n->c0, price + n->alpha)));
  d = d + touch(futurecall(Compute(n->c1, price + n->alpha)));
  d = d + Compute(n->c2, price + n->alpha) + Compute(n->c3, price + n->alpha);
  return d + n->beta * d * d;
}
`

func init() {
	bench.Register(bench.Info{
		Name:        "power",
		Description: "Solves the Power System Optimization problem",
		PaperSize:   "10,000 customers",
		Choice:      "M",
		Run:         Run,
		Source:      KernelSource,
	})
}

// demand is the customer's local optimization: a few Newton steps on a
// concave utility against the delivered price.
func demand(alpha, beta, price float64) float64 {
	d := 1.0
	for i := 0; i < 4; i++ {
		// maximize alpha*log(1+d) − price*d − beta*d²
		grad := alpha/(1+d) - price - 2*beta*d
		hess := -alpha/((1+d)*(1+d)) - 2*beta
		d -= grad / hess
	}
	if d < 0 {
		return 0
	}
	return d
}

// loss is the line loss added by an interior node carrying demand d.
func loss(beta, d float64) float64 { return beta * d * d * 0.001 }

type shape struct {
	feeders int
	leaves  int
}

// shapeFor scales the network by thinning the customers per branch, so
// the lateral fan-out — the grain of parallelism — survives scaling.
func shapeFor(cfg bench.Config) shape {
	customers := cfg.Scaled(paperFeeders*laterals*branches*leaves, 500)
	l := customers / (paperFeeders * laterals * branches)
	if l < 1 {
		l = 1
	}
	return shape{feeders: paperFeeders, leaves: l}
}

type state struct {
	r        *rt.Runtime
	site     *rt.Site
	parallel bool
	feeders  int
	leaves   int
}

// build allocates one level of the network through the thread (Power
// reports whole-program times). Laterals — the grain of parallelism — are
// placed index-proportionally across all processors; everything below a
// lateral shares its processor. gbase is the node's index within its
// level cohort.
func (s *state) build(t *rt.Thread, level, fanout, proc int, gbase int64, idx int64) gaddr.GP {
	counts := []int{0, s.leaves, branches, laterals, fanout} // children per level
	nc := counts[level]
	n := t.Alloc(proc, nodeSize(nc))
	t.Work(40)
	// Deterministic per-node coefficients.
	h := uint64(idx)*0x9e3779b97f4a7c15 + uint64(level)
	alpha := 0.5 + float64(h%1000)/2000     // 0.5..1.0
	beta := 0.05 + float64(h>>10%1000)/4000 // 0.05..0.3
	t.StoreFloat(s.site, n, offAlpha, alpha)
	t.StoreFloat(s.site, n, offBeta, beta)
	t.StoreInt(s.site, n, offCount, int64(nc))
	childProc := func(c int) int {
		g := gbase*int64(nc) + int64(c)
		switch level {
		case 4: // feeders: spread
			return int(g) * s.r.P() / fanout
		case 3: // laterals: spread over all processors
			return int(g * int64(s.r.P()) / int64(s.feeders*laterals))
		default: // branches and leaves stay with their lateral
			return proc
		}
	}
	if s.parallel && level >= 3 {
		// Subtree builds are futurecalled too: the paper notes that
		// the building phases "show excellent speed-up".
		futs := make([]*rt.Future[gaddr.GP], nc)
		for c := 0; c < nc; c++ {
			cp := childProc(c)
			g := gbase*int64(nc) + int64(c)
			id := idx*16 + int64(c) + 1
			lvl := level - 1
			futs[c] = rt.Spawn(t, func(ct *rt.Thread) gaddr.GP {
				return s.build(ct, lvl, 0, cp, g, id)
			})
		}
		for c, f := range futs {
			t.StorePtr(s.site, n, uint32(offChildren+8*c), f.Touch(t))
		}
		return n
	}
	for c := 0; c < nc; c++ {
		g := gbase*int64(nc) + int64(c)
		child := s.build(t, level-1, 0, childProc(c), g, idx*16+int64(c)+1)
		t.StorePtr(s.site, n, uint32(offChildren+8*c), child)
	}
	return n
}

// compute is the kernel: walk down with the price, return the subtree
// demand with line losses. Dereferences migrate; futures fan out at the
// top two levels.
func (s *state) compute(t *rt.Thread, n gaddr.GP, price float64, level int) float64 {
	alpha := t.LoadFloat(s.site, n, offAlpha)
	beta := t.LoadFloat(s.site, n, offBeta)
	nc := int(t.LoadInt(s.site, n, offCount))
	if nc == 0 {
		t.Work(leafWork)
		return demand(alpha, beta, price)
	}
	childPrice := price + 0.01*alpha
	var d float64
	if s.parallel && level >= 3 {
		futs := make([]*rt.Future[float64], nc)
		for c := 0; c < nc; c++ {
			child := t.LoadPtr(s.site, n, uint32(offChildren+8*c))
			futs[c] = rt.Spawn(t, func(ct *rt.Thread) float64 {
				return s.compute(ct, child, childPrice, level-1)
			})
		}
		for _, f := range futs {
			d += f.Touch(t)
		}
	} else {
		if s.parallel {
			t.Work(futureCost * int64(nc))
		}
		for c := 0; c < nc; c++ {
			child := t.LoadPtr(s.site, n, uint32(offChildren+8*c))
			d += rt.Call(t, func() float64 { return s.compute(t, child, childPrice, level-1) })
		}
	}
	t.Work(int64(interiorPer * nc))
	return d + loss(beta, d)
}

// Run executes Power under the configuration.
func Run(cfg bench.Config) bench.Result {
	r := cfg.NewRuntime()
	sh := shapeFor(cfg)
	s := &state{
		r:        r,
		site:     &rt.Site{Name: "power.node", Mech: rt.Migrate},
		parallel: !cfg.Baseline,
		feeders:  sh.feeders,
		leaves:   sh.leaves,
	}

	customers := sh.feeders * laterals * branches * sh.leaves
	var finalDemand, finalPrice float64
	var cycles int64
	r.Run(0, func(t *rt.Thread) {
		root := s.build(t, 4, sh.feeders, 0, 0, 1)
		price := 1.0
		target := demandTarget * float64(customers)
		var total float64
		for it := 0; it < iterations; it++ {
			total = rt.Call(t, func() float64 { return s.compute(t, root, price, 4) })
			price += priceGamma * (total - target) / target
			t.Work(200)
		}
		finalDemand, finalPrice = total, price
		cycles = r.M.Makespan()
	})

	return bench.Result{
		Name:      "power",
		Procs:     r.P(),
		Cycles:    cycles,
		Stats:     r.M.Stats,
		Pages:     r.PagesCachedTotal(),
		Check:     math.Float64bits(finalDemand) ^ math.Float64bits(finalPrice),
		WantCheck: reference(sh.feeders, sh.leaves),
	}
}

// reference mirrors the computation in plain Go.
func reference(feeders, nleaves int) uint64 {
	type node struct {
		alpha, beta float64
		children    []*node
	}
	var build func(level, fanout int, idx int64) *node
	build = func(level, fanout int, idx int64) *node {
		counts := []int{0, nleaves, branches, laterals, fanout}
		nc := counts[level]
		h := uint64(idx)*0x9e3779b97f4a7c15 + uint64(level)
		n := &node{
			alpha: 0.5 + float64(h%1000)/2000,
			beta:  0.05 + float64(h>>10%1000)/4000,
		}
		for c := 0; c < nc; c++ {
			n.children = append(n.children, build(level-1, 0, idx*16+int64(c)+1))
		}
		return n
	}
	var compute func(n *node, price float64) float64
	compute = func(n *node, price float64) float64 {
		if len(n.children) == 0 {
			return demand(n.alpha, n.beta, price)
		}
		childPrice := price + 0.01*n.alpha
		var d float64
		for _, c := range n.children {
			d += compute(c, childPrice)
		}
		return d + loss(n.beta, d)
	}
	root := build(4, feeders, 1)
	customers := feeders * laterals * branches * nleaves
	price := 1.0
	target := demandTarget * float64(customers)
	var total float64
	for it := 0; it < iterations; it++ {
		total = compute(root, price)
		price += priceGamma * (total - target) / target
	}
	return math.Float64bits(total) ^ math.Float64bits(price)
}
