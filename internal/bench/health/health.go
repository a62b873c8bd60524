// Package health implements the Health benchmark: a simulation of the
// Columbian health care system (paper Table 1: 1365 villages). Villages
// form a four-way tree; each village has a hospital with limited personnel
// and waiting/assessment/inside patient lists. Each timestep the tree is
// traversed; patients are generated at leaf villages, assessed, and either
// treated locally or passed up the tree to the parent hospital.
//
// Heuristic choice (Table 2: M+C): the four-way recursion's update
// combines to 1−0.3⁴ ≈ 99% ≥ threshold, so the tree traversal migrates;
// the patient-list walks have list affinity (70%), so remote list items
// cache. Table 2 reports the whole-program time (HealthW); migrate-only is
// a wash here because fewer than two percent of the patients at a node
// arrive from a remote processor.
package health

import (
	"repro/internal/bench"
	"repro/internal/gaddr"
	"repro/internal/rt"
)

// Village layout.
const (
	offChild0  = 0 // four children at 0,8,16,24
	offLevel   = 32
	offSeed    = 40
	offFree    = 48
	offWaiting = 56
	offAssess  = 64
	offInside  = 72
	offTreated = 80
	offVisits  = 88
	villageSz  = 96
)

// Patient layout.
const (
	offNext     = 0
	offTimeLeft = 8
	offHops     = 16
	patientSz   = 24
)

// Simulation parameters.
const (
	paperLevels = 6 // (4^6−1)/3 = 1365 villages
	steps       = 32
	assessTime  = 3
	insideTime  = 10
	genPct      = 40  // chance a leaf generates a patient each step
	passUpPct   = 25  // chance an assessed patient is passed up
	villageWork = 150 // per-village per-step bookkeeping
	patientWork = 120 // per-patient per-check computation
	futureCost  = 38  // lazy futurecall bookkeeping per recursion
)

// KernelSource is the kernel in the mini-C subset; the heuristic must
// migrate the village traversal and cache the patient lists.
const KernelSource = `
struct patient {
  struct patient *next;
  int time_left;
};
struct village {
  struct village *c0;
  struct village *c1;
  struct village *c2;
  struct village *c3;
  struct patient *waiting;
  struct patient *assess;
  struct patient *inside;
};

struct patient * sim(struct village *v) {
  struct patient *p;
  if (v == NULL) return NULL;
  touch(futurecall(sim(v->c0)));
  touch(futurecall(sim(v->c1)));
  touch(futurecall(sim(v->c2)));
  touch(futurecall(sim(v->c3)));
  p = v->assess;
  while (p) {
    p->time_left = p->time_left - 1;
    p = p->next;
  }
  return v->waiting;
}
`

func init() {
	bench.Register(bench.Info{
		Name:        "health",
		Description: "Simulates the Columbian health care system",
		PaperSize:   "1365 villages",
		Choice:      "M+C",
		Run:         Run,
		Source:      KernelSource,
	})
}

// lcg is the per-village random stream (order-independent across villages,
// so parallel and sequential runs draw identical numbers).
func lcgNext(seed uint64) uint64 { return seed*6364136223846793005 + 1442695040888963407 }
func lcgPct(seed uint64) int     { return int(seed >> 33 % 100) }

type state struct {
	r         *rt.Runtime
	siteTree  *rt.Site
	siteList  *rt.Site
	parallel  bool
	spawnLvls int
}

// levelsFor scales the paper's six-level tree down.
func levelsFor(cfg bench.Config) int {
	n := cfg.Scaled(1365, 85)
	l, total := 0, 0
	for total < n {
		total += pow4(l)
		l++
	}
	return l
}

func pow4(k int) int { return 1 << (2 * uint(k)) }

// build allocates the village tree through the thread (Health reports
// whole-program times, so building is costed), distributing subtrees over
// a processor range.
func (s *state) build(t *rt.Thread, level int, lo, hi int, seed uint64) gaddr.GP {
	if level == 0 {
		return gaddr.Nil
	}
	v := t.Alloc(lo, villageSz)
	t.Work(villageWork)
	st := s.siteTree
	t.StoreInt(st, v, offLevel, int64(level))
	t.StoreWord(st, v, offSeed, seed)
	t.StoreInt(st, v, offFree, int64(level))
	for c := 0; c < 4; c++ {
		clo, chi := lo, hi
		if hi-lo >= 4 {
			span := (hi - lo) / 4
			clo, chi = lo+c*span, lo+(c+1)*span
		} else if hi-lo > 1 {
			clo = lo + c%(hi-lo)
			chi = clo + 1
		}
		child := s.build(t, level-1, clo, chi, lcgNext(seed^uint64(c*2654435761+1)))
		t.StorePtr(st, v, uint32(offChild0+8*c), child)
	}
	return v
}

// prepend pushes patient p onto the list field of v.
func (s *state) prepend(t *rt.Thread, v gaddr.GP, listOff uint32, p gaddr.GP) {
	head := t.LoadPtr(s.siteTree, v, listOff)
	t.StorePtr(s.siteList, p, offNext, head)
	t.StorePtr(s.siteTree, v, listOff, p)
}

// sim runs one timestep at v and returns the list (threaded through next)
// of patients passed up to the parent.
func (s *state) sim(t *rt.Thread, v gaddr.GP, level int) gaddr.GP {
	if v.IsNil() {
		return gaddr.Nil
	}
	st, sl := s.siteTree, s.siteList

	// Recurse into the children; the paper's version futurecalls each
	// child and touches the results in order.
	var children [4]gaddr.GP
	for c := 0; c < 4; c++ {
		children[c] = t.LoadPtr(st, v, uint32(offChild0+8*c))
	}
	var up [4]gaddr.GP
	if s.parallel && level >= s.spawnLvls {
		var futs [4]*rt.Future[gaddr.GP]
		for c := 0; c < 4; c++ {
			if children[c].IsNil() {
				continue
			}
			child := children[c]
			futs[c] = rt.Spawn(t, func(ct *rt.Thread) gaddr.GP {
				return s.sim(ct, child, level-1)
			})
		}
		for c := 0; c < 4; c++ {
			if futs[c] != nil {
				up[c] = futs[c].Touch(t)
			}
		}
	} else {
		if s.parallel {
			t.Work(futureCost)
		}
		for c := 0; c < 4; c++ {
			if !children[c].IsNil() {
				child := children[c]
				up[c] = rt.Call(t, func() gaddr.GP { return s.sim(t, child, level-1) })
			}
		}
	}

	t.Work(villageWork)

	// Patients arriving from below join the waiting list.
	for c := 0; c < 4; c++ {
		p := up[c]
		for !p.IsNil() {
			next := t.LoadPtr(sl, p, offNext)
			hops := t.LoadInt(sl, p, offHops)
			t.StoreInt(sl, p, offHops, hops+1)
			s.prepend(t, v, offWaiting, p)
			p = next
		}
	}

	// check_inside: treat patients; discharge when done.
	s.walkList(t, v, offInside, func(p gaddr.GP) listAction {
		t.Work(patientWork)
		left := t.LoadInt(sl, p, offTimeLeft) - 1
		t.StoreInt(sl, p, offTimeLeft, left)
		if left > 0 {
			return keep
		}
		free := t.LoadInt(st, v, offFree)
		t.StoreInt(st, v, offFree, free+1)
		t.StoreInt(st, v, offTreated, t.LoadInt(st, v, offTreated)+1)
		t.StoreInt(st, v, offVisits, t.LoadInt(st, v, offVisits)+t.LoadInt(sl, p, offHops))
		return remove
	})

	// check_assess: after assessment, treat here or pass up. Moves to
	// another list of the same village are deferred until after the
	// walks so a walk never revisits a moved patient. (pending is local:
	// concurrent villages each have their own.)
	var pending []pendingMove
	var passHead gaddr.GP
	s.walkList(t, v, offAssess, func(p gaddr.GP) listAction {
		t.Work(patientWork)
		left := t.LoadInt(sl, p, offTimeLeft) - 1
		t.StoreInt(sl, p, offTimeLeft, left)
		if left > 0 {
			return keep
		}
		seed := lcgNext(t.LoadWord(st, v, offSeed))
		t.StoreWord(st, v, offSeed, seed)
		if lcgPct(seed) < passUpPct {
			// Pass up: release personnel, chain onto the pass list.
			free := t.LoadInt(st, v, offFree)
			t.StoreInt(st, v, offFree, free+1)
			t.StorePtr(sl, p, offNext, passHead)
			passHead = p
			return removeKeepNext
		}
		t.StoreInt(sl, p, offTimeLeft, insideTime)
		pending = append(pending, pendingMove{p: p, list: offInside})
		return removeKeepNext
	})

	// check_waiting: admit patients while personnel are free.
	s.walkList(t, v, offWaiting, func(p gaddr.GP) listAction {
		t.Work(patientWork)
		free := t.LoadInt(st, v, offFree)
		if free <= 0 {
			return keep
		}
		t.StoreInt(st, v, offFree, free-1)
		t.StoreInt(sl, p, offTimeLeft, assessTime)
		pending = append(pending, pendingMove{p: p, list: offAssess})
		return removeKeepNext
	})
	for _, m := range pending {
		s.prepend(t, v, m.list, m.p)
	}

	// Leaf villages generate new patients.
	if level == 1 {
		seed := lcgNext(t.LoadWord(st, v, offSeed))
		t.StoreWord(st, v, offSeed, seed)
		if lcgPct(seed) < genPct {
			p := t.AllocAtHome(v, patientSz)
			t.StoreInt(sl, p, offTimeLeft, 0)
			t.StoreInt(sl, p, offHops, 0)
			s.prepend(t, v, offWaiting, p)
		}
	}
	return passHead
}

// listAction tells walkList what to do with the current patient.
type listAction int

const (
	keep listAction = iota
	remove
	removeKeepNext // removed, but its next field will be rewritten by the callback's move
)

// walkList traverses a village list applying f, unlinking removed
// patients.
func (s *state) walkList(t *rt.Thread, v gaddr.GP, listOff uint32, f func(p gaddr.GP) listAction) {
	prev := gaddr.Nil
	p := t.LoadPtr(s.siteTree, v, listOff)
	for !p.IsNil() {
		next := t.LoadPtr(s.siteList, p, offNext)
		switch f(p) {
		case keep:
			prev = p
		case remove, removeKeepNext:
			if prev.IsNil() {
				t.StorePtr(s.siteTree, v, listOff, next)
			} else {
				t.StorePtr(s.siteList, prev, offNext, next)
			}
		}
		p = next
	}
}

type pendingMove struct {
	p    gaddr.GP
	list uint32
}

// Run executes Health under the configuration.
func Run(cfg bench.Config) bench.Result {
	r := cfg.NewRuntime()
	levels := levelsFor(cfg)
	s := &state{
		r:        r,
		siteTree: &rt.Site{Name: "health.tree", Mech: rt.Migrate},
		siteList: &rt.Site{Name: "health.list", Mech: rt.Cache},
		parallel: !cfg.Baseline,
	}
	// Spawn futures only down to the distribution depth.
	depth := 0
	for pow4(depth) < r.P() {
		depth++
	}
	s.spawnLvls = levels - depth + 1

	var root gaddr.GP
	var check uint64
	var cycles int64
	r.Run(0, func(t *rt.Thread) {
		root = s.build(t, levels, 0, r.P(), 12345)
		for step := 0; step < steps; step++ {
			leftover := rt.Call(t, func() gaddr.GP { return s.sim(t, root, levels) })
			// Patients passed above the root re-enter the root's
			// waiting list next step.
			for p := leftover; !p.IsNil(); {
				next := t.LoadPtr(s.siteList, p, offNext)
				s.prepend(t, root, offWaiting, p)
				p = next
			}
		}
		cycles = r.M.Makespan() // verification below is not program time
		check = s.checksum(t, root)
	})

	return bench.Result{
		Name:      "health",
		Procs:     r.P(),
		Cycles:    cycles,
		Stats:     r.M.Stats,
		Pages:     r.PagesCachedTotal(),
		Check:     check,
		WantCheck: reference(levels, r.P()),
	}
}

// checksum folds every village's counters and remaining list lengths.
func (s *state) checksum(t *rt.Thread, v gaddr.GP) uint64 {
	if v.IsNil() {
		return 0
	}
	var sum uint64
	sum += uint64(t.LoadInt(s.siteTree, v, offTreated)) * 1000003
	sum += uint64(t.LoadInt(s.siteTree, v, offVisits)) * 10007
	sum += uint64(t.LoadInt(s.siteTree, v, offFree)) * 101
	for _, off := range []uint32{offWaiting, offAssess, offInside} {
		n := 0
		for p := t.LoadPtr(s.siteTree, v, off); !p.IsNil(); p = t.LoadPtr(s.siteList, p, offNext) {
			n++
		}
		sum += uint64(n) * 13
	}
	for c := 0; c < 4; c++ {
		sum = sum*31 + s.checksum(t, t.LoadPtr(s.siteTree, v, uint32(offChild0+8*c)))
	}
	return sum
}
