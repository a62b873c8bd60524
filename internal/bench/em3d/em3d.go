// Package em3d implements the EM3D benchmark: propagation of
// electromagnetic waves through a 3D object, represented as a bipartite
// graph of E nodes and H nodes (paper Table 1: 2K nodes). At each time
// step, new E values are computed from a weighted sum of neighboring H
// nodes, then vice versa.
//
// The heuristic's choice (Table 2: M+C): the per-processor node lists have
// high locality and are walked by a parallelizable loop, so the nodes use
// migration; the cross edges have low locality, so neighbor reads cache.
// The paper's implementation "performs comparably to the ghost node
// implementation of Culler et al., yet does not require substantial
// modification to the sequential code."
package em3d

import (
	"math"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/gaddr"
	"repro/internal/rt"
)

// As in the original Olden em3d, node values live in per-processor packed
// arrays and nodes carry pointers to value slots; edges point directly at
// the neighbor's value slot ("from_values"). Packing gives cached line
// fetches spatial locality: one 64-byte line holds eight neighbor values.
//
// Node layout: value-slot pointer @0, next @8, then degree pairs of
// (neighbor value-slot pointer, weight), 16 bytes each.
const (
	offSlot  = 0
	offNext  = 8
	offEdges = 16
	edgeSize = 16
)

func nodeSize(degree int) uint32 { return uint32(offEdges + degree*edgeSize) }

func offNbr(i int) uint32    { return uint32(offEdges + i*edgeSize) }
func offWeight(i int) uint32 { return uint32(offEdges + i*edgeSize + 8) }

// Paper-scale parameters.
const (
	paperNodes = 2048 // total nodes (half E, half H)
	degree     = 10   // edges per node
	iterations = 8    // simulated time steps
	pctRemote  = 20   // percent of edges crossing processors (Table 3
	// reports 19.4% of EM3D's cacheable reads are remote)
)

// workPerNode is the per-node computation besides the edge reads.
const workPerNode = 320

// futureBookkeeping models the per-node futurecall/touch cost of the
// parallelizable node loop.
const futureBookkeeping = 38

// KernelSource is the kernel in the mini-C subset. The node-list walk is
// parallelizable (futurecall per node), so the heuristic migrates l even
// though the default affinity is below the threshold; the neighbor
// dereferences inside compute_node are cached.
const KernelSource = `
struct node {
  float value;
  struct node *next;
  struct node *from;
  float coeff;
};

void compute_node(struct node *n) {
  n->value = n->value - n->from->value * n->coeff;
}

void all_compute(struct node *l) {
  while (l) {
    futurecall(compute_node(l));
    l = l->next;
  }
}
`

func init() {
	bench.Register(bench.Info{
		Name:        "em3d",
		Description: "Simulates the propagation of electro-magnetic waves in a 3D object",
		PaperSize:   "2K nodes",
		Choice:      "M+C",
		Source:      KernelSource,
		Phased:      &bench.Phased{Build: buildPhase, Kernel: kernelPhase},
	})
}

// graph is the deterministic problem instance, generated once in plain Go
// so the sequential reference and the simulated run compute on identical
// data.
type graph struct {
	n         int // nodes per side
	value     [2][]float64
	nbr       [2][][]int // [side][node][edge] -> index on the other side
	weight    [2][][]float64
	procOf    func(i int) int
	headOf    [2][]int // first node index per processor, -1 if none
	nextOf    [2][]int // intra-processor list threading, -1 ends
	procCount int
}

func buildGraph(nPerSide, procs int, rng *rand.Rand) *graph {
	g := &graph{n: nPerSide, procCount: procs}
	for side := 0; side < 2; side++ {
		g.value[side] = make([]float64, nPerSide)
		g.nbr[side] = make([][]int, nPerSide)
		g.weight[side] = make([][]float64, nPerSide)
		for i := 0; i < nPerSide; i++ {
			g.value[side][i] = rng.Float64()
		}
	}
	g.procOf = func(i int) int { return bench.BlockedProc(i, nPerSide, procs) }
	for side := 0; side < 2; side++ {
		for i := 0; i < nPerSide; i++ {
			p := g.procOf(i)
			lo, hi := blockBounds(nPerSide, procs, p)
			for e := 0; e < degree; e++ {
				var j int
				if rng.Intn(100) < pctRemote || hi-lo == 0 {
					// Remote edges connect physically adjacent
					// partitions of the 3D object, so cached lines
					// of a neighbour's packed values get reused.
					np := p + 1
					if np >= procs {
						np = 0
					}
					if rng.Intn(2) == 0 && p > 0 {
						np = p - 1
					}
					nlo, nhi := blockBounds(nPerSide, procs, np)
					if nhi == nlo {
						j = rng.Intn(nPerSide)
					} else {
						j = nlo + rng.Intn(nhi-nlo)
					}
				} else {
					j = lo + rng.Intn(hi-lo)
				}
				g.nbr[side][i] = append(g.nbr[side][i], j)
				g.weight[side][i] = append(g.weight[side][i], rng.Float64()/float64(degree))
			}
		}
		// Thread per-processor lists in index order.
		g.headOf[side] = make([]int, procs)
		g.nextOf[side] = make([]int, nPerSide)
		for p := range g.headOf[side] {
			g.headOf[side][p] = -1
		}
		last := make([]int, procs)
		for p := range last {
			last[p] = -1
		}
		for i := 0; i < nPerSide; i++ {
			p := g.procOf(i)
			g.nextOf[side][i] = -1
			if last[p] < 0 {
				g.headOf[side][p] = i
			} else {
				g.nextOf[side][last[p]] = i
			}
			last[p] = i
		}
	}
	return g
}

func blockBounds(n, procs, p int) (lo, hi int) {
	lo = p * n / procs
	hi = (p + 1) * n / procs
	return lo, hi
}

// reference runs the computation on plain Go slices.
func (g *graph) reference(iters int) uint64 {
	val := [2][]float64{
		append([]float64(nil), g.value[0]...),
		append([]float64(nil), g.value[1]...),
	}
	for it := 0; it < iters; it++ {
		for side := 0; side < 2; side++ {
			other := 1 - side
			for i := 0; i < g.n; i++ {
				v := val[side][i]
				for e := 0; e < degree; e++ {
					v -= g.weight[side][i][e] * val[other][g.nbr[side][i][e]]
				}
				val[side][i] = v
			}
		}
	}
	return checksum(val)
}

func checksum(val [2][]float64) uint64 {
	var sum uint64
	for side := 0; side < 2; side++ {
		for i, v := range val[side] {
			sum ^= math.Float64bits(v) + uint64(i)
		}
	}
	return sum
}

// built is the immutable build-phase state: the problem instance, the
// heap addresses of its materialization, and the precomputed reference
// checksum (pure host arithmetic, so it belongs to the build).
type built struct {
	g     *graph
	nodes [2][]gaddr.GP
	slots [2][]gaddr.GP
	want  uint64
}

// buildPhase generates the bipartite graph and materializes it through
// the raw heap API (no simulated accesses).
func buildPhase(cfg bench.Config, r *rt.Runtime) any {
	nPerSide := cfg.Scaled(paperNodes, 512) / 2
	rng := rand.New(rand.NewSource(42))
	g := buildGraph(nPerSide, r.P(), rng)

	// Materialize into the distributed heap (untimed build phase): first
	// the packed per-processor value arrays, then the node records.
	slots := [2][]gaddr.GP{make([]gaddr.GP, g.n), make([]gaddr.GP, g.n)}
	for p := 0; p < r.P(); p++ {
		for side := 0; side < 2; side++ {
			lo, hi := blockBounds(g.n, r.P(), p)
			if hi == lo {
				continue
			}
			block := r.RawAlloc(p, uint32(8*(hi-lo)))
			for i := lo; i < hi; i++ {
				slots[side][i] = rt.FieldPtr(block, uint32(8*(i-lo)))
			}
		}
	}
	nodes := [2][]gaddr.GP{make([]gaddr.GP, g.n), make([]gaddr.GP, g.n)}
	for side := 0; side < 2; side++ {
		for i := 0; i < g.n; i++ {
			nodes[side][i] = r.RawAlloc(g.procOf(i), nodeSize(degree))
		}
	}
	for side := 0; side < 2; side++ {
		other := 1 - side
		for i := 0; i < g.n; i++ {
			n := nodes[side][i]
			r.RawStorePtr(n, offSlot, slots[side][i])
			r.RawStore(slots[side][i], 0, math.Float64bits(g.value[side][i]))
			next := gaddr.Nil
			if nx := g.nextOf[side][i]; nx >= 0 {
				next = nodes[side][nx]
			}
			r.RawStorePtr(n, offNext, next)
			for e := 0; e < degree; e++ {
				r.RawStorePtr(n, offNbr(e), slots[other][g.nbr[side][i][e]])
				r.RawStore(n, offWeight(e), math.Float64bits(g.weight[side][i][e]))
			}
		}
	}
	return &built{g: g, nodes: nodes, slots: slots, want: g.reference(iterations)}
}

// kernelPhase times the propagation sweep and verifies it against the
// precomputed sequential reference.
func kernelPhase(cfg bench.Config, r *rt.Runtime, st any) bench.Result {
	b := st.(*built)
	g, nodes, slots := b.g, b.nodes, b.slots

	siteNode := &rt.Site{Name: "em3d.node", Mech: rt.Migrate}
	siteEdge := &rt.Site{Name: "em3d.edge", Mech: rt.Cache}

	walk := func(t *rt.Thread, head gaddr.GP) {
		for n := head; !n.IsNil(); n = t.LoadPtr(siteNode, n, offNext) {
			slot := t.LoadPtr(siteNode, n, offSlot)
			v := t.LoadFloat(siteNode, slot, 0)
			for e := 0; e < degree; e++ {
				nb := t.LoadPtr(siteNode, n, offNbr(e))
				w := t.LoadFloat(siteNode, n, offWeight(e))
				v -= w * t.LoadFloat(siteEdge, nb, 0)
			}
			t.StoreFloat(siteNode, slot, 0, v)
			t.Work(workPerNode)
			if !cfg.Baseline {
				t.Work(futureBookkeeping)
			}
		}
	}

	iters := iterations
	r.Run(0, func(t *rt.Thread) {
		for it := 0; it < iters; it++ {
			for side := 0; side < 2; side++ {
				if cfg.Baseline {
					for p := 0; p < r.P(); p++ {
						if h := g.headOf[side][p]; h >= 0 {
							walk(t, nodes[side][h])
						}
					}
					continue
				}
				var futs []*rt.Future[int]
				for p := 0; p < r.P(); p++ {
					h := g.headOf[side][p]
					if h < 0 {
						continue
					}
					head := nodes[side][h]
					futs = append(futs, rt.Spawn(t, func(c *rt.Thread) int {
						walk(c, head)
						return 0
					}))
				}
				for _, f := range futs {
					f.Touch(t)
				}
			}
		}
	})

	// Read back the final values for verification.
	final := [2][]float64{make([]float64, g.n), make([]float64, g.n)}
	for side := 0; side < 2; side++ {
		for i := 0; i < g.n; i++ {
			final[side][i] = math.Float64frombits(r.RawLoad(slots[side][i], 0))
		}
	}

	return bench.Result{
		Name:      "em3d",
		Procs:     r.P(),
		Cycles:    r.M.Makespan(),
		Stats:     r.M.Stats,
		Pages:     r.PagesCachedTotal(),
		Check:     checksum(final),
		WantCheck: b.want,
	}
}
