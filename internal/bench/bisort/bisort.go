package bisort

import (
	"repro/internal/bench"
	"repro/internal/gaddr"
	"repro/internal/rt"
)

// Node layout: value @0, left @8, right @16.
const (
	offVal   = 0
	offLeft  = 8
	offRight = 16
	nodeSz   = 24
)

const (
	paperValues = 128 << 10 // 128K integers = 2^17
	nodeWork    = 22        // per node visited in sort/merge recursion
	stepWork    = 25        // per search-pointer step
	swapWork    = 14        // per node pair in a subtree content swap
	futureCost  = 38
)

// KernelSource is the merge kernel in the mini-C subset: the recursion on
// root migrates (1−0.3² = 91%), while the pl/pr subtree search caches
// (averaged branch affinity 70%).
const KernelSource = `
struct tree {
  int value;
  struct tree *left;
  struct tree *right;
};

int BiMerge(struct tree *root, int spr, int dir) {
  struct tree *pl = root->left;
  struct tree *pr = root->right;
  while (pl) {
    if ((pl->value > pr->value) == dir) {
      pl = pl->left;
      pr = pr->left;
    } else {
      pl = pl->right;
      pr = pr->right;
    }
  }
  if (root->left != NULL) {
    root->value = touch(futurecall(BiMerge(root->left, root->value, dir)));
    spr = BiMerge(root->right, spr, dir);
  }
  return spr;
}
`

func init() {
	bench.Register(bench.Info{
		Name:        "bisort",
		Description: "Sorts by creating two disjoint bitonic sequences and then merging them",
		PaperSize:   "128K integers",
		Choice:      "M+C",
		Source:      KernelSource,
		Phased:      &bench.Phased{Build: buildPhase, Kernel: kernelPhase},
	})
}

type state struct {
	siteRoot   *rt.Site // recursion over the tree: migrate
	siteSearch *rt.Site // pl/pr subtree search: cache
	siteSwap   *rt.Site // subtree content swaps: migrate
	parallel   bool
	spawnDepth int
}

// build allocates a perfect tree mirroring refBuild, distributing subtrees
// at the machine's distribution depth (untimed: Bisort reports kernel
// time).
func build(r *rt.Runtime, levels int, next *uint64) gaddr.GP {
	var rec func(level, proc, stride int) gaddr.GP
	rec = func(level, proc, stride int) gaddr.GP {
		if level == 0 {
			return gaddr.Nil
		}
		*next = *next*6364136223846793005 + 1442695040888963407
		n := r.RawAlloc(proc, nodeSz)
		r.RawStore(n, offVal, uint64(int64(*next>>40)))
		rp := proc
		if stride > 1 {
			rp = proc + stride/2
		}
		r.RawStorePtr(n, offLeft, rec(level-1, proc, stride/2))
		r.RawStorePtr(n, offRight, rec(level-1, rp, stride/2))
		return n
	}
	return rec(levels, 0, r.P())
}

// swapTree deep-swaps the values of two same-shape subtrees. Following the
// paper, the trees' *contents* are exchanged (not pointers), structured so
// that "a large amount of data is touched on each processor between
// migrations": collect one side into the thread's state, exchange with the
// other side, write back — three migrations per swap instead of a per-node
// ping-pong. The walks migrate (the subtrees are internally local).
func (s *state) swapTree(t *rt.Thread, a, b gaddr.GP) {
	if a.IsNil() {
		return
	}
	var buf []int64
	s.collectValues(t, b, &buf)
	i := 0
	s.exchangeValues(t, a, buf, &i)
	i = 0
	s.storeValues(t, b, buf, &i)
}

// collectValues reads a subtree's values in preorder.
func (s *state) collectValues(t *rt.Thread, n gaddr.GP, buf *[]int64) {
	if n.IsNil() {
		return
	}
	*buf = append(*buf, t.LoadInt(s.siteSwap, n, offVal))
	t.Work(swapWork)
	s.collectValues(t, t.LoadPtr(s.siteSwap, n, offLeft), buf)
	s.collectValues(t, t.LoadPtr(s.siteSwap, n, offRight), buf)
}

// exchangeValues stores buf into the subtree in preorder while collecting
// the old values back into buf.
func (s *state) exchangeValues(t *rt.Thread, n gaddr.GP, buf []int64, i *int) {
	if n.IsNil() {
		return
	}
	old := t.LoadInt(s.siteSwap, n, offVal)
	t.StoreInt(s.siteSwap, n, offVal, buf[*i])
	buf[*i] = old
	*i++
	t.Work(swapWork)
	s.exchangeValues(t, t.LoadPtr(s.siteSwap, n, offLeft), buf, i)
	s.exchangeValues(t, t.LoadPtr(s.siteSwap, n, offRight), buf, i)
}

// storeValues writes buf into the subtree in preorder.
func (s *state) storeValues(t *rt.Thread, n gaddr.GP, buf []int64, i *int) {
	if n.IsNil() {
		return
	}
	t.StoreInt(s.siteSwap, n, offVal, buf[*i])
	*i++
	t.Work(swapWork)
	s.storeValues(t, t.LoadPtr(s.siteSwap, n, offLeft), buf, i)
	s.storeValues(t, t.LoadPtr(s.siteSwap, n, offRight), buf, i)
}

// bimerge is BiMerge compiled against the runtime.
func (s *state) bimerge(t *rt.Thread, root gaddr.GP, spr int64, dir bool, depth int) int64 {
	rv := t.LoadInt(s.siteRoot, root, offVal)
	rightex := (rv > spr) != dir
	if rightex {
		t.StoreInt(s.siteRoot, root, offVal, spr)
		spr = rv
	}
	pl := t.LoadPtr(s.siteRoot, root, offLeft)
	pr := t.LoadPtr(s.siteRoot, root, offRight)
	for !pl.IsNil() {
		t.Work(stepWork)
		lv := t.LoadInt(s.siteSearch, pl, offVal)
		rv2 := t.LoadInt(s.siteSearch, pr, offVal)
		elem := (lv > rv2) != dir
		if elem {
			t.StoreInt(s.siteSearch, pl, offVal, rv2)
			t.StoreInt(s.siteSearch, pr, offVal, lv)
		}
		if rightex {
			if elem {
				sa := t.LoadPtr(s.siteSearch, pl, offRight)
				sb := t.LoadPtr(s.siteSearch, pr, offRight)
				rt.CallVoid(t, func() { s.swapTree(t, sa, sb) })
				pl = t.LoadPtr(s.siteSearch, pl, offLeft)
				pr = t.LoadPtr(s.siteSearch, pr, offLeft)
			} else {
				pl = t.LoadPtr(s.siteSearch, pl, offRight)
				pr = t.LoadPtr(s.siteSearch, pr, offRight)
			}
		} else {
			if elem {
				sa := t.LoadPtr(s.siteSearch, pl, offLeft)
				sb := t.LoadPtr(s.siteSearch, pr, offLeft)
				rt.CallVoid(t, func() { s.swapTree(t, sa, sb) })
				pl = t.LoadPtr(s.siteSearch, pl, offRight)
				pr = t.LoadPtr(s.siteSearch, pr, offRight)
			} else {
				pl = t.LoadPtr(s.siteSearch, pl, offLeft)
				pr = t.LoadPtr(s.siteSearch, pr, offLeft)
			}
		}
	}
	t.Work(nodeWork)
	left := t.LoadPtr(s.siteRoot, root, offLeft)
	if left.IsNil() {
		return spr
	}
	right := t.LoadPtr(s.siteRoot, root, offRight)
	rootVal := t.LoadInt(s.siteRoot, root, offVal)
	var newRoot, newSpr int64
	if s.parallel && depth < s.spawnDepth {
		f := rt.Spawn(t, func(c *rt.Thread) int64 {
			return s.bimerge(c, left, rootVal, dir, depth+1)
		})
		newSpr = rt.Call(t, func() int64 { return s.bimerge(t, right, spr, dir, depth+1) })
		newRoot = f.Touch(t)
	} else {
		if s.parallel {
			t.Work(futureCost)
		}
		newRoot = rt.Call(t, func() int64 { return s.bimerge(t, left, rootVal, dir, depth+1) })
		newSpr = rt.Call(t, func() int64 { return s.bimerge(t, right, spr, dir, depth+1) })
	}
	t.StoreInt(s.siteRoot, root, offVal, newRoot)
	return newSpr
}

// bisort is BiSort compiled against the runtime.
func (s *state) bisort(t *rt.Thread, root gaddr.GP, spr int64, dir bool, depth int) int64 {
	t.Work(nodeWork)
	left := t.LoadPtr(s.siteRoot, root, offLeft)
	if left.IsNil() {
		rv := t.LoadInt(s.siteRoot, root, offVal)
		if (rv > spr) != dir {
			t.StoreInt(s.siteRoot, root, offVal, spr)
			spr = rv
		}
		return spr
	}
	right := t.LoadPtr(s.siteRoot, root, offRight)
	rootVal := t.LoadInt(s.siteRoot, root, offVal)
	var newRoot int64
	if s.parallel && depth < s.spawnDepth {
		f := rt.Spawn(t, func(c *rt.Thread) int64 {
			return s.bisort(c, left, rootVal, dir, depth+1)
		})
		spr = rt.Call(t, func() int64 { return s.bisort(t, right, spr, !dir, depth+1) })
		newRoot = f.Touch(t)
	} else {
		if s.parallel {
			t.Work(futureCost)
		}
		newRoot = rt.Call(t, func() int64 { return s.bisort(t, left, rootVal, dir, depth+1) })
		spr = rt.Call(t, func() int64 { return s.bisort(t, right, spr, !dir, depth+1) })
	}
	t.StoreInt(s.siteRoot, root, offVal, newRoot)
	return rt.Call(t, func() int64 { return s.bimerge(t, root, spr, dir, depth) })
}

// levels converts the configured problem size to the tree depth (2^levels
// values including the spare).
func levelsFor(cfg bench.Config) int {
	n := cfg.Scaled(paperValues, 1<<9)
	l := 0
	for (1 << uint(l)) < n {
		l++
	}
	return l
}

// built is the immutable build-phase state: the tree root, the initial
// spare value, and the precomputed reference checksum.
type built struct {
	root      gaddr.GP
	levels    int
	spr       int64
	distDepth int
	want      uint64
}

// buildPhase allocates the tree through the raw heap API.
func buildPhase(cfg bench.Config, r *rt.Runtime) any {
	levels := levelsFor(cfg)

	next := uint64(99)
	root := build(r, levels, &next)
	spr := int64(next>>40) + 1

	distDepth := 0
	for 1<<uint(distDepth) < r.P() {
		distDepth++
	}
	return &built{root: root, levels: levels, spr: spr, distDepth: distDepth,
		want: reference(levels)}
}

// kernelPhase times the two bitonic sort passes and verifies the final
// tree contents.
func kernelPhase(cfg bench.Config, r *rt.Runtime, st any) bench.Result {
	b := st.(*built)
	root, spr := b.root, b.spr
	s := &state{
		siteRoot:   &rt.Site{Name: "bisort.root", Mech: rt.Migrate},
		siteSearch: &rt.Site{Name: "bisort.search", Mech: rt.Cache},
		siteSwap:   &rt.Site{Name: "bisort.swap", Mech: rt.Migrate},
		parallel:   !cfg.Baseline,
		spawnDepth: b.distDepth + 2,
	}

	var check uint64
	var cycles int64
	r.Run(0, func(t *rt.Thread) {
		spr = rt.Call(t, func() int64 { return s.bisort(t, root, spr, false, 0) })
		spr = rt.Call(t, func() int64 { return s.bisort(t, root, spr, true, 0) })
		cycles = r.M.Makespan() // the verification walk below is not program time
		h := uint64(1469598103934665603)
		var walk func(n gaddr.GP)
		walk = func(n gaddr.GP) {
			if n.IsNil() {
				return
			}
			walk(t.LoadPtr(s.siteRoot, n, offLeft))
			h ^= uint64(t.LoadInt(s.siteRoot, n, offVal))
			h *= 1099511628211
			walk(t.LoadPtr(s.siteRoot, n, offRight))
		}
		walk(root)
		h ^= uint64(spr)
		h *= 1099511628211
		check = h
	})

	return bench.Result{
		Name:      "bisort",
		Procs:     r.P(),
		Cycles:    cycles,
		Stats:     r.M.Stats,
		Pages:     r.PagesCachedTotal(),
		Check:     check,
		WantCheck: b.want,
	}
}
