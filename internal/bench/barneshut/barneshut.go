package barneshut

import (
	"math"

	"repro/internal/bench"
	"repro/internal/gaddr"
	"repro/internal/rt"
)

// Record layouts. Both node kinds begin with a kind tag so the tree walk
// can distinguish them.
const (
	kindBody = 0
	kindCell = 1

	offKind = 0

	// body: mass @8, pos @16..32, vel @40..56, acc @64..80
	offBMass = 8
	offBPos  = 16
	offBVel  = 40
	offBAcc  = 64
	bodySz   = 88

	// cell: mass @8, com @16..32, children @40..96
	offCMass  = 8
	offCCom   = 16
	offCChild = 40
	cellSz    = 104
)

func offBPosK(k int) uint32  { return uint32(offBPos + 8*k) }
func offBVelK(k int) uint32  { return uint32(offBVel + 8*k) }
func offBAccK(k int) uint32  { return uint32(offBAcc + 8*k) }
func offCComK(k int) uint32  { return uint32(offCCom + 8*k) }
func offChildO(o int) uint32 { return uint32(offCChild + 8*o) }

const (
	paperBodies = 8192
	steps       = 2
	accumWork   = 180 // per body-node gravitational interaction
	openWork    = 70  // per opening-criterion test
	insertWork  = 25  // per insertion step
	comWork     = 20  // per cell in the center-of-mass pass
	advanceWork = 40  // per body position update
	futureCost  = 38
)

// KernelSource is the force phase in the mini-C subset. The body loop is
// parallelizable, so it migrates; the tree walk would migrate on its own
// (high child affinity), but its induction variable enters the loop as the
// unchanging tree root — the bottleneck rule demotes it to caching.
const KernelSource = `
struct cell {
  float mass;
  struct cell *c0 __affinity(90);
  struct cell *c1 __affinity(90);
  struct cell *c2 __affinity(90);
  struct cell *c3 __affinity(90);
};
struct body {
  float ax;
  struct body *next;
};

float walk(struct cell *c, float px) {
  if (c == NULL) return 0.0;
  return c->mass + walk(c->c0, px) + walk(c->c1, px) + walk(c->c2, px) + walk(c->c3, px);
}

void forces(struct body *b, struct cell *root) {
  while (b) {
    b->ax = touch(futurecall(walk(root, b->ax)));
    b = b->next;
  }
}
`

func init() {
	bench.Register(bench.Info{
		Name:        "barneshut",
		Description: "Solves the N-body problem using hierarchical methods",
		PaperSize:   "8K bodies",
		Choice:      "M+C",
		Run:         Run,
		Source:      KernelSource,
		MinScale:    3, // at scales 1 and 2 processor 0's section runs out
	})
}

type state struct {
	r         *rt.Runtime
	siteBody  *rt.Site // per-body work at the owner: migrate
	siteCell  *rt.Site // tree reads during the walk: cache (bottleneck rule)
	siteBuild *rt.Site // sequential tree build: cache
	parallel  bool
}

// insert adds body b (with position pos, read once) into the octree.
func (s *state) insert(t *rt.Thread, cell gaddr.GP, center [3]float64, half float64, b gaddr.GP, pos [3]float64) {
	t.Work(insertWork)
	o := octant(center, pos)
	cur := t.LoadPtr(s.siteBuild, cell, offChildO(o))
	switch {
	case cur.IsNil():
		t.StorePtr(s.siteBuild, cell, offChildO(o), b)
	case t.LoadInt(s.siteBuild, cur, offKind) == kindBody:
		// Split: the new cell lives on the displaced body's processor,
		// distributing the tree like the bodies.
		sub := t.AllocAtHome(cur, cellSz)
		t.StoreInt(s.siteBuild, sub, offKind, kindCell)
		for q := 0; q < 8; q++ {
			t.StoreWord(s.siteBuild, sub, offChildO(q), 0)
		}
		t.StorePtr(s.siteBuild, cell, offChildO(o), sub)
		cc := childCenter(center, half, o)
		var curPos [3]float64
		for k := 0; k < 3; k++ {
			curPos[k] = t.LoadFloat(s.siteBuild, cur, offBPosK(k))
		}
		s.insert(t, sub, cc, half/2, cur, curPos)
		s.insert(t, sub, cc, half/2, b, pos)
	default:
		s.insert(t, cur, childCenter(center, half, o), half/2, b, pos)
	}
}

// com computes masses and centers of mass bottom-up.
func (s *state) com(t *rt.Thread, cell gaddr.GP) {
	t.Work(comWork)
	var mass float64
	var wpos [3]float64
	for o := 0; o < 8; o++ {
		ch := t.LoadPtr(s.siteBuild, cell, offChildO(o))
		if ch.IsNil() {
			continue
		}
		if t.LoadInt(s.siteBuild, ch, offKind) == kindBody {
			m := t.LoadFloat(s.siteBuild, ch, offBMass)
			mass += m
			for k := 0; k < 3; k++ {
				wpos[k] += m * t.LoadFloat(s.siteBuild, ch, offBPosK(k))
			}
		} else {
			s.com(t, ch)
			m := t.LoadFloat(s.siteBuild, ch, offCMass)
			mass += m
			for k := 0; k < 3; k++ {
				wpos[k] += m * t.LoadFloat(s.siteBuild, ch, offCComK(k))
			}
		}
	}
	t.StoreFloat(s.siteBuild, cell, offCMass, mass)
	if mass > 0 {
		for k := 0; k < 3; k++ {
			t.StoreFloat(s.siteBuild, cell, offCComK(k), wpos[k]/mass)
		}
	}
}

// force walks the tree for one body, accumulating acceleration into acc.
func (s *state) force(t *rt.Thread, b gaddr.GP, bpos [3]float64, node gaddr.GP, half float64, acc *[3]float64) {
	if node.IsNil() {
		return
	}
	if t.LoadInt(s.siteCell, node, offKind) == kindBody {
		if node == b {
			return
		}
		var pos [3]float64
		for k := 0; k < 3; k++ {
			pos[k] = t.LoadFloat(s.siteCell, node, offBPosK(k))
		}
		m := t.LoadFloat(s.siteCell, node, offBMass)
		accumulateAt(t, bpos, m, pos, acc)
		return
	}
	var com [3]float64
	for k := 0; k < 3; k++ {
		com[k] = t.LoadFloat(s.siteCell, node, offCComK(k))
	}
	t.Work(openWork)
	var dr float64
	for k := 0; k < 3; k++ {
		d := com[k] - bpos[k]
		dr += d * d
	}
	if (2*half)*(2*half) < theta*theta*dr {
		m := t.LoadFloat(s.siteCell, node, offCMass)
		accumulateAt(t, bpos, m, com, acc)
		return
	}
	for o := 0; o < 8; o++ {
		s.force(t, b, bpos, t.LoadPtr(s.siteCell, node, offChildO(o)), half/2, acc)
	}
}

// accumulateAt mirrors accumulate on thread-local state.
func accumulateAt(t *rt.Thread, bpos [3]float64, mass float64, pos [3]float64, acc *[3]float64) {
	t.Work(accumWork)
	var dr [3]float64
	r2 := eps2
	for k := 0; k < 3; k++ {
		dr[k] = pos[k] - bpos[k]
		r2 += dr[k] * dr[k]
	}
	inv := gravity * mass / (r2 * math.Sqrt(r2))
	for k := 0; k < 3; k++ {
		acc[k] += dr[k] * inv
	}
}

// Run executes Barnes-Hut under the configuration (whole-program timing).
func Run(cfg bench.Config) bench.Result {
	r := cfg.NewRuntime()
	n := cfg.Scaled(paperBodies, 256)
	ref := genBodies(n)

	s := &state{
		r:         r,
		siteBody:  &rt.Site{Name: "barneshut.body", Mech: rt.Migrate},
		siteCell:  &rt.Site{Name: "barneshut.cell", Mech: rt.Cache},
		siteBuild: &rt.Site{Name: "barneshut.build", Mech: rt.Cache},
		parallel:  !cfg.Baseline,
	}

	// Allocate the bodies blocked across processors (costed: whole
	// program), remembering which indexes live on each processor.
	bodies := make([]gaddr.GP, n)
	perProc := make([][]int, r.P())
	var cycles int64
	r.Run(0, func(t *rt.Thread) {
		for i, b := range ref {
			p := bench.BlockedProc(i, n, r.P())
			g := t.Alloc(p, bodySz)
			bodies[i] = g
			perProc[p] = append(perProc[p], i)
			t.StoreInt(s.siteBuild, g, offKind, kindBody)
			t.StoreFloat(s.siteBuild, g, offBMass, b.mass)
			for k := 0; k < 3; k++ {
				t.StoreFloat(s.siteBuild, g, offBPosK(k), b.pos[k])
				t.StoreFloat(s.siteBuild, g, offBVelK(k), b.vel[k])
			}
		}

		center := [3]float64{0.5, 0.5, 0.5}
		const half = 4.0
		for step := 0; step < steps; step++ {
			// Phase 1: sequential tree build (as in the paper).
			root := t.Alloc(0, cellSz)
			t.StoreInt(s.siteBuild, root, offKind, kindCell)
			for q := 0; q < 8; q++ {
				t.StoreWord(s.siteBuild, root, offChildO(q), 0)
			}
			for i := range bodies {
				var pos [3]float64
				for k := 0; k < 3; k++ {
					pos[k] = t.LoadFloat(s.siteBuild, bodies[i], offBPosK(k))
				}
				s.insert(t, root, center, half, bodies[i], pos)
			}
			s.com(t, root)

			// Phase 2: parallel force computation — migrate to each
			// body's owner, cache the tree.
			forceProc := func(ct *rt.Thread, p int) {
				for _, i := range perProc[p] {
					b := bodies[i]
					var bpos [3]float64
					for k := 0; k < 3; k++ {
						bpos[k] = ct.LoadFloat(s.siteBody, b, offBPosK(k))
					}
					var acc [3]float64
					s.force(ct, b, bpos, root, half, &acc)
					for k := 0; k < 3; k++ {
						ct.StoreFloat(s.siteBody, b, offBAccK(k), acc[k])
					}
					if s.parallel {
						ct.Work(futureCost)
					}
				}
			}
			// Phase 3: parallel position update.
			advanceProc := func(ct *rt.Thread, p int) {
				for _, i := range perProc[p] {
					b := bodies[i]
					ct.Work(advanceWork)
					for k := 0; k < 3; k++ {
						v := ct.LoadFloat(s.siteBody, b, offBVelK(k)) +
							ct.LoadFloat(s.siteBody, b, offBAccK(k))*dt
						ct.StoreFloat(s.siteBody, b, offBVelK(k), v)
						ct.StoreFloat(s.siteBody, b, offBPosK(k),
							ct.LoadFloat(s.siteBody, b, offBPosK(k))+v*dt)
					}
				}
			}
			for _, phase := range []func(*rt.Thread, int){forceProc, advanceProc} {
				if !s.parallel {
					for p := 0; p < r.P(); p++ {
						phase(t, p)
					}
					continue
				}
				var futs []*rt.Future[int]
				for p := 0; p < r.P(); p++ {
					if len(perProc[p]) == 0 {
						continue
					}
					p := p
					ph := phase
					futs = append(futs, rt.Spawn(t, func(c *rt.Thread) int {
						c.MigrateTo(p)
						ph(c, p)
						return 0
					}))
				}
				for _, f := range futs {
					f.Touch(t)
				}
			}
		}
		cycles = r.M.Makespan()
	})

	// Verification: final positions against the plain-Go reference.
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for i := range bodies {
		for k := 0; k < 3; k++ {
			mix(r.RawLoad(bodies[i], offBPosK(k)))
		}
	}

	return bench.Result{
		Name:      "barneshut",
		Procs:     r.P(),
		Cycles:    cycles,
		Stats:     r.M.Stats.Snapshot(),
		Pages:     r.PagesCachedTotal(),
		Check:     h,
		WantCheck: reference(n, steps),
	}
}
