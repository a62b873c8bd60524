// Package treeadd implements the TreeAdd benchmark: add the values in a
// balanced binary tree (paper Table 1: 1024K nodes). The heuristic chooses
// migration alone ("M"): the recursion's update of t combines the left and
// right affinities into 1−(1−a_l)(1−a_r) ≥ the 90% threshold, and the
// recursion is parallelizable (futurecalls), so t's dereferences migrate.
package treeadd

import (
	"repro/internal/bench"
	"repro/internal/gaddr"
	"repro/internal/rt"
)

// Node layout: val int at 0, left pointer at 8, right pointer at 16.
const (
	offVal   = 0
	offLeft  = 8
	offRight = 16
	nodeSize = 24
)

// workPerNode is the simulated computation charged per visited node,
// calibrated so Olden's per-reference overhead lands near the paper's
// one-processor speedup (0.73 for TreeAdd).
const workPerNode = 100

// futureBookkeeping approximates the futurecall+touch cost Olden pays at
// every recursion even when lazy task creation never makes a thread. The
// runtime charges it for real above the spawn cutoff; below it the kernel
// charges the same amount explicitly.
const futureBookkeeping = 38

// KernelSource is the benchmark kernel in the mini-C subset; tests check
// that the compile-time heuristic selects migration for t, matching
// Table 2's "M".
const KernelSource = `
struct tree {
  int val;
  struct tree *left __affinity(90);
  struct tree *right __affinity(70);
};

int TreeAdd(struct tree *t) {
  int l;
  int r;
  if (t == NULL) return 0;
  l = touch(futurecall(TreeAdd(t->left)));
  r = TreeAdd(t->right);
  return l + r + t->val;
}
`

func init() {
	bench.Register(bench.Info{
		Name:        "treeadd",
		Description: "Adds the values in a tree",
		PaperSize:   "1024K nodes",
		Choice:      "M",
		Source:      KernelSource,
		Phased:      &bench.Phased{Build: buildPhase, Kernel: kernelPhase},
	})
}

type state struct {
	siteT    *rt.Site
	parallel bool
	// spawnDepth bounds futurecall depth: below the data-distribution
	// depth every subtree is local, so lazy task creation would never
	// steal anyway.
	spawnDepth int
}

// build allocates a perfect binary tree of 2^levels − 1 nodes, placing
// subtrees at the distribution depth round-robin across processors and
// numbering nodes so the total is a closed form.
func build(r *rt.Runtime, levels, distDepth int, next *int64) gaddr.GP {
	var rec func(level, proc, stride int) gaddr.GP
	rec = func(level, proc, stride int) gaddr.GP {
		if level == 0 {
			return gaddr.Nil
		}
		n := r.RawAlloc(proc, nodeSize)
		v := *next
		*next++
		r.RawStore(n, offVal, uint64(v))
		lp, rp := proc, proc
		if stride > 1 {
			rp = proc + stride/2
		}
		r.RawStorePtr(n, offLeft, rec(level-1, lp, stride/2))
		r.RawStorePtr(n, offRight, rec(level-1, rp, stride/2))
		return n
	}
	_ = distDepth
	return rec(levels, 0, r.P())
}

// add is the kernel: compiled per the heuristic, every dereference of t
// migrates; the first recursive call is a futurecall.
func (s *state) add(t *rt.Thread, node gaddr.GP, depth int) int64 {
	if node.IsNil() {
		return 0
	}
	left := t.LoadPtr(s.siteT, node, offLeft)
	right := t.LoadPtr(s.siteT, node, offRight)
	val := t.LoadInt(s.siteT, node, offVal)
	t.Work(workPerNode)
	if s.parallel && depth < s.spawnDepth {
		f := rt.Spawn(t, func(c *rt.Thread) int64 { return s.add(c, left, depth+1) })
		r := rt.Call(t, func() int64 { return s.add(t, right, depth+1) })
		return f.Touch(t) + r + val
	}
	if s.parallel {
		t.Work(futureBookkeeping)
	}
	lv := rt.Call(t, func() int64 { return s.add(t, left, depth+1) })
	rv := rt.Call(t, func() int64 { return s.add(t, right, depth+1) })
	return lv + rv + val
}

// Levels returns the tree depth for a configuration (paper size: 2^20−1
// nodes ≈ 1024K).
func levels(cfg bench.Config) int {
	n := cfg.Scaled(1<<20, 1<<10)
	l := 0
	for (1 << uint(l)) <= n {
		l++
	}
	return l
}

// built is the immutable build-phase state: what the kernel needs to
// find and verify the tree, free of runtime and configuration.
type built struct {
	root      gaddr.GP
	nodes     int64
	distDepth int
}

// buildPhase allocates the tree through the raw heap API (no simulated
// accesses, so the phase is scheme-invariant by construction).
func buildPhase(cfg bench.Config, r *rt.Runtime) any {
	lv := levels(cfg)
	nodes := int64(1)<<uint(lv) - 1
	var next int64
	distDepth := 0
	for 1<<uint(distDepth) < r.P() {
		distDepth++
	}
	root := build(r, lv, distDepth, &next)
	return &built{root: root, nodes: nodes, distDepth: distDepth}
}

// kernelPhase times the TreeAdd traversal and verifies the closed form.
func kernelPhase(cfg bench.Config, r *rt.Runtime, st any) bench.Result {
	b := st.(*built)
	s := &state{
		siteT:      &rt.Site{Name: "treeadd.t", Mech: rt.Migrate},
		parallel:   !cfg.Baseline,
		spawnDepth: b.distDepth + 2,
	}

	var sum int64
	r.Run(0, func(t *rt.Thread) {
		sum = rt.Call(t, func() int64 { return s.add(t, b.root, 0) })
	})

	return bench.Result{
		Name:      "treeadd",
		Procs:     r.P(),
		Cycles:    r.M.Makespan(),
		Stats:     r.M.Stats,
		Pages:     r.PagesCachedTotal(),
		Check:     uint64(sum),
		WantCheck: uint64(b.nodes * (b.nodes - 1) / 2),
	}
}
