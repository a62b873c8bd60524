package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lang"
)

func analyze(t *testing.T, src string) *Report {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(prog, DefaultParams())
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Figure 3 of the paper: a simple loop with induction variables. With
// path-affinity 90 for left and 70 for right: s and t are induction
// variables (s' = s->left, t' = t->right->left); u is not.
const figure3 = `
struct node {
  struct node *left __affinity(90);
  struct node *right __affinity(70);
};
void f(struct node *s, struct node *t, struct node *u) {
  while (s) {
    s = s->left;
    t = t->right->left;
    u = s->right;
  }
}
`

func TestFigure3UpdateMatrix(t *testing.T) {
	r := analyze(t, figure3)
	l := r.FindLoop("f/while")
	if l == nil {
		t.Fatal("loop not found")
	}
	if aff, ok := l.Matrix.Diagonal("s"); !ok || !approx(aff, 0.90) {
		t.Errorf("(s,s) = %v,%v; want 90%%", aff, ok)
	}
	// t' = t->right->left: product 0.70 × 0.90 = 0.63, as in the figure.
	if aff, ok := l.Matrix.Diagonal("t"); !ok || !approx(aff, 0.63) {
		t.Errorf("(t,t) = %v,%v; want 63%%", aff, ok)
	}
	if _, ok := l.Matrix.Diagonal("u"); ok {
		t.Error("u must not be an induction variable")
	}
	// u is updated by s along right: entry (u,s) = 70 in the figure.
	if aff, ok := l.Matrix.Get("u", "s"); !ok || !approx(aff, 0.70*0.90) {
		// Note: the figure shows (u,s)=70 because it reads the update
		// u = s->right against the *new* s; our dataflow composes with
		// s' = s->left first, giving 63 via s-at-iteration-start. Both
		// identify u as updated-by-s and not an induction variable.
		if !ok || !approx(aff, 0.70) {
			t.Errorf("(u,s) = %v,%v", aff, ok)
		}
	}
	// The heuristic picks s (strongest diagonal, 90 ≥ threshold) and
	// migrates it.
	if l.Var != "s" || l.Mech != ChooseMigrate {
		t.Errorf("choice = %s %s; want migrate s", l.Mech, l.Var)
	}
}

// Figure 4: TreeAdd. The two recursive calls both execute, so the update of
// t combines as 1−(1−0.9)(1−0.7) = 0.97.
const figure4 = `
struct tree {
  int val;
  struct tree *left __affinity(90);
  struct tree *right __affinity(70);
};
int TreeAdd(struct tree *t) {
  if (t == NULL) return 0;
  else return TreeAdd(t->left) + TreeAdd(t->right) + t->val;
}
`

func TestFigure4TreeAddRecursion(t *testing.T) {
	r := analyze(t, figure4)
	l := r.FindLoop("TreeAdd/rec")
	if l == nil {
		t.Fatal("recursion loop not found")
	}
	if aff, ok := l.Matrix.Diagonal("t"); !ok || !approx(aff, 0.97) {
		t.Fatalf("(t,t) = %v,%v; want 97%%", aff, ok)
	}
	if l.Var != "t" || l.Mech != ChooseMigrate {
		t.Fatalf("choice = %s %s; want migrate t", l.Mech, l.Var)
	}
}

// With default affinities (70/70) a tree traversal still migrates:
// 1−0.3×0.3 = 0.91 ≥ 90%; a tree search averages to 70 and caches; a list
// traversal has 70 and caches. This is exactly how the paper says the
// defaults were chosen (§4.3).
const defaultsSrc = `
struct tree {
  int val;
  struct tree *left;
  struct tree *right;
};
struct list { int v; struct list *next; };

void Traverse(struct tree *t) {
  if (t == NULL) return;
  Traverse(t->left);
  Traverse(t->right);
}

struct tree * Search(struct tree *t, int k) {
  if (t == NULL) return NULL;
  if (k < t->val) return Search(t->left, k);
  else return Search(t->right, k);
}

int Walk(struct list *l) {
  int n = 0;
  while (l) {
    n = n + l->v;
    l = l->next;
  }
  return n;
}
`

func TestDefaultChoices(t *testing.T) {
	r := analyze(t, defaultsSrc)

	trav := r.FindLoop("Traverse/rec")
	if aff, _ := trav.Matrix.Diagonal("t"); !approx(aff, 0.91) {
		t.Errorf("traversal affinity = %v; want 91%%", aff)
	}
	if trav.Mech != ChooseMigrate {
		t.Error("tree traversals must migrate by default")
	}

	search := r.FindLoop("Search/rec")
	if aff, _ := search.Matrix.Diagonal("t"); !approx(aff, 0.70) {
		t.Errorf("search affinity = %v; want 70%% (average of branches)", aff)
	}
	if search.Mech != ChooseCache {
		t.Error("tree searches must cache by default")
	}

	walk := r.FindLoop("Walk/while")
	if aff, _ := walk.Matrix.Diagonal("l"); !approx(aff, 0.70) {
		t.Errorf("list affinity = %v; want 70%%", aff)
	}
	if walk.Mech != ChooseCache {
		t.Error("list traversals must cache by default")
	}
}

// Figure 5: the bottleneck pass. WalkAndTraverse spawns a Traverse of the
// same tree for every list element — migrating the traversal would
// serialize on the tree root, so it is demoted to caching. TraverseAndWalk
// walks a different list at every tree node — no bottleneck.
const figure5 = `
struct tree {
  struct tree *left;
  struct tree *right;
  struct list *list;
};
struct list { int v; struct list *next; };

void visit(struct list *l) { return; }

void Traverse(struct tree *t) {
  if (t == NULL) return;
  Traverse(t->left);
  Traverse(t->right);
}

void Walk(struct list *l) {
  while (l) {
    visit(l);
    l = l->next;
  }
}

void WalkAndTraverse(struct list *l, struct tree *t) {
  while (l) {
    futurecall(Traverse(t));
    l = l->next;
  }
}

void TraverseAndWalk(struct tree *t) {
  if (t == NULL) return;
  futurecall(TraverseAndWalk(t->left));
  futurecall(TraverseAndWalk(t->right));
  Walk(t->list);
}
`

func TestFigure5Bottleneck(t *testing.T) {
	r := analyze(t, figure5)

	// Standalone, Traverse migrates.
	if l := r.FindLoop("Traverse/rec"); l.Mech != ChooseMigrate {
		t.Fatal("standalone Traverse must migrate")
	}

	// Inside WalkAndTraverse's parallel while loop, the Traverse
	// instance is a bottleneck (t is not updated by the outer loop):
	// demoted to caching.
	outer := r.FindLoop("WalkAndTraverse/while")
	if outer == nil || !outer.Parallel {
		t.Fatal("outer loop must be parallel")
	}
	var inst *Loop
	for _, c := range outer.Children {
		if strings.HasPrefix(c.Label, "Traverse/rec") {
			inst = c
		}
	}
	if inst == nil {
		t.Fatal("Traverse instance not expanded under the while loop")
	}
	if inst.Mech != ChooseCache || !inst.Bottleneck {
		t.Fatalf("Traverse inside WalkAndTraverse: mech=%s bottleneck=%v; want cache via bottleneck rule",
			inst.Mech, inst.Bottleneck)
	}

	// TraverseAndWalk: the recursion migrates (parallel), and the Walk
	// instance is not flagged — t->list differs at every node because t
	// is updated in the parent loop.
	rec := r.FindLoop("TraverseAndWalk/rec")
	if rec.Mech != ChooseMigrate {
		t.Fatal("TraverseAndWalk recursion must migrate")
	}
	var walkInst *Loop
	for _, c := range rec.Children {
		if strings.HasPrefix(c.Label, "Walk/while") {
			walkInst = c
		}
	}
	if walkInst == nil {
		t.Fatal("Walk instance not expanded under the recursion")
	}
	if walkInst.Bottleneck {
		t.Fatal("Walk inside TraverseAndWalk must not be a bottleneck")
	}
}

func TestAffinityAlgebraQuick(t *testing.T) {
	// orCombine and avgCombine keep affinities in [0,1]; orCombine
	// dominates both inputs (at least one path local), avgCombine lies
	// between them.
	f := func(pa, pb uint8) bool {
		a := float64(pa%101) / 100
		b := float64(pb%101) / 100
		or, avg := orCombine(a, b), avgCombine(a, b)
		lo, hi := math.Min(a, b), math.Max(a, b)
		return or >= hi-1e-12 && or <= 1+1e-12 &&
			avg >= lo-1e-12 && avg <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathAffinityProductQuick(t *testing.T) {
	// A chain s = s->f->f->…->f of length k has affinity a^k.
	f := func(paff uint8, k uint8) bool {
		aff := int(paff % 101)
		n := int(k%4) + 1
		path := "s"
		for i := 0; i < n; i++ {
			path += "->f"
		}
		src := `
struct n { struct n *f __affinity(` + itoa(aff) + `); };
void g(struct n *s) { while (s) { s = ` + path + `; } }
`
		prog, err := lang.Parse(src)
		if err != nil {
			return false
		}
		r := Analyze(prog, DefaultParams())
		l := r.FindLoop("g/while")
		got, ok := l.Matrix.Diagonal("s")
		want := math.Pow(float64(aff)/100, float64(n))
		return ok && math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestJoinOmitsOneSidedUpdates(t *testing.T) {
	// An update present in only one branch of an if is omitted: it does
	// not occur on every iteration.
	src := `
struct n { struct n *next; };
void g(struct n *s, int c) {
  while (s) {
    if (c > 0) { s = s->next; }
    c = c - 1;
  }
}
`
	r := analyze(t, src)
	l := r.FindLoop("g/while")
	if _, ok := l.Matrix.Diagonal("s"); ok {
		t.Fatal("one-sided update must be omitted")
	}
}

func TestJoinAveragesBothBranches(t *testing.T) {
	src := `
struct n { struct n *a __affinity(80); struct n *b __affinity(40); };
void g(struct n *s, int c) {
  while (s) {
    if (c > 0) { s = s->a; }
    else { s = s->b; }
  }
}
`
	r := analyze(t, src)
	l := r.FindLoop("g/while")
	if aff, ok := l.Matrix.Diagonal("s"); !ok || !approx(aff, 0.60) {
		t.Fatalf("(s,s) = %v,%v; want 60%% (average)", aff, ok)
	}
}

func TestLoopMatrixReturningArmDropsOut(t *testing.T) {
	// A returning arm leaves the loop: it neither vetoes the other arm's
	// update (one-sided omission applies only to arms that fall through),
	// nor does a body every path of which returns record anything — no
	// next iteration follows. The for-post update counts after the body.
	src := `
struct n { struct n *next __affinity(80); struct n *alt; };
void g(struct n *s, struct n *q, int c) {
  while (s) {
    if (s->alt) { return; } else { s = s->next; }
    q = q->next;
  }
  while (q) {
    q = q->next;
    if (c) { return; } else { return; }
  }
  for (; s; s = s->next) {
    if (c) { return; }
  }
}
`
	r := analyze(t, src)
	l := r.FindLoop("g/while@4")
	if aff, ok := l.Matrix.Diagonal("s"); !ok || !approx(aff, 0.80) {
		t.Errorf("(s,s) = %v,%v; the returning arm must not veto s = s->next", aff, ok)
	}
	if aff, ok := l.Matrix.Diagonal("q"); !ok || !approx(aff, 0.80) {
		t.Errorf("(q,q) = %v,%v", aff, ok)
	}
	if l := r.FindLoop("g/while@8"); len(l.Matrix) != 0 {
		t.Errorf("every path returns, yet the matrix is %v", l.Matrix)
	}
	if aff, ok := r.FindLoop("g/for").Matrix.Diagonal("s"); !ok || !approx(aff, 0.80) {
		t.Errorf("for-post (s,s) = %v,%v", aff, ok)
	}
}

func TestInheritance(t *testing.T) {
	// A loop without an induction variable migrates on its parent's
	// variable.
	src := `
struct tree { struct tree *left __affinity(95); struct tree *right __affinity(95); int n; };
void g(struct tree *t) {
  if (t == NULL) return;
  int i = 0;
  while (i < t->n) {
    i = i + 1;
  }
  g(t->left);
  g(t->right);
}
`
	r := analyze(t, src)
	inner := r.FindLoop("g/while")
	if !inner.Inherited || inner.Var != "t" || inner.Mech != ChooseMigrate {
		t.Fatalf("inner loop: inherited=%v var=%q mech=%s; want inherited migrate t",
			inner.Inherited, inner.Var, inner.Mech)
	}
}

func TestParallelizableLoopMigratesBelowThreshold(t *testing.T) {
	// A parallel loop migrates even when affinity is below threshold,
	// because only migration generates new threads.
	src := `
struct list { struct list *next; };
void work(struct list *l) { return; }
void g(struct list *l) {
  while (l) {
    futurecall(work(l));
    l = l->next;
  }
}
`
	r := analyze(t, src)
	l := r.FindLoop("g/while")
	if !l.Parallel || l.Mech != ChooseMigrate {
		t.Fatalf("parallel=%v mech=%s; want parallel migrate", l.Parallel, l.Mech)
	}
}

func TestReportString(t *testing.T) {
	r := analyze(t, figure4)
	out := r.String()
	for _, want := range []string{"TreeAdd/rec", "update t ← t", "97%", "migrate t"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestUsesMigrationOnly(t *testing.T) {
	if !analyze(t, figure4).UsesMigrationOnly() {
		t.Error("TreeAdd is an M benchmark")
	}
	if analyze(t, defaultsSrc).UsesMigrationOnly() {
		t.Error("defaultsSrc contains cached loops")
	}
}

// A recursive call whose result is stored through — the call sits on an
// assignment's left-hand side — is a recursive call like any other: §4.2's
// rule gives the recursion loop the update t ← t->left and §4.3 migrates t.
const leftmostSrc = `
struct tree {
  int val;
  struct tree *left __affinity(95);
};
struct tree *Leftmost(struct tree *t) {
  if (t->left == NULL) return t;
  Leftmost(t->left)->val = 1;
  return t;
}
`

func TestRecursionThroughAssignTarget(t *testing.T) {
	r := analyze(t, leftmostSrc)
	loops := r.FuncLoops("Leftmost")
	if len(loops) != 1 || loops[0].Kind != RecursionLoop {
		t.Fatalf("control loops = %v; want one recursion loop", loops)
	}
	l := loops[0]
	if aff, ok := l.Matrix.Get("t", "t"); !ok || !approx(aff, 0.95) {
		t.Fatalf("(t,t) = %v,%v; want 95%%", aff, ok)
	}
	if l.Var != "t" || l.Mech != ChooseMigrate {
		t.Fatalf("choice = %s %s; want migrate t", l.Mech, l.Var)
	}
	if !r.UsesMigrationOnly() {
		t.Fatal("program choice is M+C; want M")
	}
}
