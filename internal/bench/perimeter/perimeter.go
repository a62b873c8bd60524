package perimeter

import (
	"repro/internal/bench"
	"repro/internal/gaddr"
	"repro/internal/rt"
)

// Node layout: color @0, childType @8, parent @16, children @24+8q.
const (
	offColor  = 0
	offCType  = 8
	offParent = 16
	offChild0 = 24
	nodeSz    = 56
)

func offChild(q int) uint32 { return uint32(offChild0 + 8*q) }

const (
	paperSide    = 4096 // 4K×4K image
	nodeWork     = 30   // per quadrant visited by the perimeter recursion
	neighborWork = 15   // per parent-pointer step in neighbor finding
	adjacentWork = 15   // per node in the white-boundary sum
	futureCost   = 38
)

// KernelSource is the kernel in the mini-C subset. Perimeter is one of the
// three benchmarks with explicit path-affinity hints: the quadrant children
// are marked high-affinity (subtrees are colocated) so the recursion
// migrates, while the parent pointers are marked low-affinity so the
// neighbor search caches ("they may be far away in the tree").
const KernelSource = `
struct quad {
  int color;
  int childtype;
  struct quad *parent __affinity(40);
  struct quad *nw __affinity(90);
  struct quad *ne __affinity(90);
  struct quad *sw __affinity(90);
  struct quad *se __affinity(90);
};

struct quad * gtequal_adj_neighbor(struct quad *t, int dir) {
  struct quad *q;
  if (t->parent == NULL) return NULL;
  if (adj(dir, t->childtype) == 1) {
    q = gtequal_adj_neighbor(t->parent, dir);
  } else {
    q = t->parent;
  }
  return q;
}

int perimeter(struct quad *t, int size) {
  int total;
  if (t->color == 2) {
    total = touch(futurecall(perimeter(t->nw, size / 2)));
    total = total + touch(futurecall(perimeter(t->ne, size / 2)));
    total = total + perimeter(t->sw, size / 2);
    total = total + perimeter(t->se, size / 2);
    return total;
  }
  return t->color;
}
`

func init() {
	bench.Register(bench.Info{
		Name:        "perimeter",
		Description: "Computes the perimeter of a set of quad-tree encoded raster images",
		PaperSize:   "4K x 4K image",
		Choice:      "M+C",
		Source:      KernelSource,
		Phased:      &bench.Phased{Build: buildPhase, Kernel: kernelPhase},
	})
}

// sideFor scales the image: the paper's 4096² divided by the scale (area).
func sideFor(cfg bench.Config) int {
	side := paperSide
	scale := cfg.Scale
	if scale <= 0 {
		scale = bench.DefaultScale
	}
	for scale > 1 && side > 64 {
		side /= 2
		scale /= 4
	}
	return side
}

// build mirrors refBuild into the distributed heap, spreading quadrants of
// the top levels over processor ranges (untimed build phase).
func build(r *rt.Runtime, im image, x, y, size int, parent gaddr.GP, childType, lo, hi int) gaddr.GP {
	c := im.regionColor(x, y, size)
	n := r.RawAlloc(lo, nodeSz)
	r.RawStore(n, offColor, uint64(c))
	r.RawStore(n, offCType, uint64(childType))
	r.RawStorePtr(n, offParent, parent)
	if c == grey {
		for q := 0; q < 4; q++ {
			clo, chi := lo, hi
			if hi-lo > 1 {
				clo = lo + q*(hi-lo)/4
				chi = lo + (q+1)*(hi-lo)/4
				if chi <= clo {
					chi = clo + 1
				}
			}
			dx, dy := quadXY(q, size)
			child := build(r, im, x+dx, y+dy, size/2, n, q, clo, chi)
			r.RawStorePtr(n, offChild(q), child)
		}
	}
	return n
}

type state struct {
	siteTree *rt.Site // quadrant recursion: migrate
	siteNbr  *rt.Site // neighbor finding through parents: cache
	parallel bool
	spawnSz  int // spawn futures while size is at least this
}

// neighbor is gtequal_adj_neighbor compiled against the runtime: cached.
func (s *state) neighbor(t *rt.Thread, node gaddr.GP, dir int) gaddr.GP {
	t.Work(neighborWork)
	parent := t.LoadPtr(s.siteNbr, node, offParent)
	ctype := int(t.LoadInt(s.siteNbr, node, offCType))
	var q gaddr.GP
	if !parent.IsNil() && adjacent(dir, ctype) {
		q = s.neighbor(t, parent, dir)
	} else {
		q = parent
	}
	if !q.IsNil() && t.LoadInt(s.siteNbr, q, offColor) == grey {
		return t.LoadPtr(s.siteNbr, q, offChild(reflect(dir, ctype)))
	}
	return q
}

// sumAdjacent totals white boundary within a grey neighbor: cached.
func (s *state) sumAdjacent(t *rt.Thread, q gaddr.GP, q1, q2, size int) int64 {
	t.Work(adjacentWork)
	switch t.LoadInt(s.siteNbr, q, offColor) {
	case grey:
		return s.sumAdjacent(t, t.LoadPtr(s.siteNbr, q, offChild(q1)), q1, q2, size/2) +
			s.sumAdjacent(t, t.LoadPtr(s.siteNbr, q, offChild(q2)), q1, q2, size/2)
	case white:
		return int64(size)
	default:
		return 0
	}
}

// perimeter is the main recursion: migrate along the quadrants, futures at
// the top of the tree.
func (s *state) perimeter(t *rt.Thread, node gaddr.GP, size int) int64 {
	t.Work(nodeWork)
	color := t.LoadInt(s.siteTree, node, offColor)
	if color == grey {
		var kids [4]gaddr.GP
		for q := 0; q < 4; q++ {
			kids[q] = t.LoadPtr(s.siteTree, node, offChild(q))
		}
		var total int64
		if s.parallel && size >= s.spawnSz {
			var futs [4]*rt.Future[int64]
			for q := 0; q < 4; q++ {
				kid := kids[q]
				futs[q] = rt.Spawn(t, func(c *rt.Thread) int64 {
					return s.perimeter(c, kid, size/2)
				})
			}
			for q := 0; q < 4; q++ {
				total += futs[q].Touch(t)
			}
		} else {
			if s.parallel {
				t.Work(futureCost)
			}
			for q := 0; q < 4; q++ {
				kid := kids[q]
				total += rt.Call(t, func() int64 { return s.perimeter(t, kid, size/2) })
			}
		}
		return total
	}
	if color != black {
		return 0
	}
	var total int64
	for dir := 0; dir < 4; dir++ {
		nb := s.neighbor(t, node, dir)
		switch {
		case nb.IsNil():
			total += int64(size)
		case t.LoadInt(s.siteNbr, nb, offColor) == white:
			total += int64(size)
		case t.LoadInt(s.siteNbr, nb, offColor) == grey:
			q1, q2 := sideQuadrants(dir)
			total += s.sumAdjacent(t, nb, q1, q2, size)
		}
	}
	return total
}

// built is the immutable build-phase state: the quadtree root, the
// image side, and the precomputed reference perimeter.
type built struct {
	root gaddr.GP
	side int
	want uint64
}

// buildPhase materializes the quadtree through the raw heap API.
func buildPhase(cfg bench.Config, r *rt.Runtime) any {
	side := sideFor(cfg)
	im := makeImage(side)
	root := build(r, im, 0, 0, side, gaddr.Nil, 0, 0, r.P())
	return &built{root: root, side: side, want: reference(side)}
}

// kernelPhase times the perimeter traversal and verifies the total.
func kernelPhase(cfg bench.Config, r *rt.Runtime, st any) bench.Result {
	b := st.(*built)
	root, side := b.root, b.side
	s := &state{
		siteTree: &rt.Site{Name: "perimeter.tree", Mech: rt.Migrate},
		siteNbr:  &rt.Site{Name: "perimeter.nbr", Mech: rt.Cache},
		parallel: !cfg.Baseline,
	}
	// Spawn futures down to the distribution depth (quadrants spread
	// while their processor range is larger than one).
	s.spawnSz = side / (1 << 4)
	if s.spawnSz < 4 {
		s.spawnSz = 4
	}

	var total int64
	r.Run(0, func(t *rt.Thread) {
		total = rt.Call(t, func() int64 { return s.perimeter(t, root, side) })
	})

	return bench.Result{
		Name:      "perimeter",
		Procs:     r.P(),
		Cycles:    r.M.Makespan(),
		Stats:     r.M.Stats,
		Pages:     r.PagesCachedTotal(),
		Check:     uint64(total),
		WantCheck: b.want,
	}
}
