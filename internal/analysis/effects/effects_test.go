package effects

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func analyze(t *testing.T, src string) *Result {
	t.Helper()
	r, err := AnalyzeSource(src, core.DefaultParams())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return r
}

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

func TestTreeAddSummary(t *testing.T) {
	r := analyze(t, figure4)
	s := r.Summary("TreeAdd")
	if s == nil {
		t.Fatal("no summary for TreeAdd")
	}
	if !s.Pure {
		t.Errorf("TreeAdd not pure: %s", s.EffectsLine())
	}
	if !s.Recursive || s.Mutual {
		t.Errorf("recursive=%v mutual=%v, want true,false", s.Recursive, s.Mutual)
	}
	wantReads := []Region{{"tree", "left"}, {"tree", "right"}, {"tree", "val"}}
	if !reflect.DeepEqual(s.Reads, wantReads) {
		t.Errorf("Reads = %v, want %v", s.Reads, wantReads)
	}
	if len(s.Writes) != 0 || len(s.Escapes) != 0 || len(s.Extern) != 0 {
		t.Errorf("unexpected effects: %s", s.EffectsLine())
	}
	if !s.Returns || s.Allocs {
		t.Errorf("returns=%v allocs=%v, want true,false (structural recursion, no alloc)", s.Returns, s.Allocs)
	}
}

func TestFigure3ListWalk(t *testing.T) {
	r := analyze(t, `
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
`)
	s := r.Summary("f")
	if !s.Pure {
		t.Errorf("f not pure: %s", s.EffectsLine())
	}
	wantReads := []Region{{"node", "left"}, {"node", "right"}}
	if !reflect.DeepEqual(s.Reads, wantReads) {
		t.Errorf("Reads = %v, want %v", s.Reads, wantReads)
	}
	// Pointer chase on s: the walk ends with the list.
	if !s.Returns {
		t.Errorf("f may not return: %s", s.EffectsLine())
	}
}

func TestFreshAllocationsStayPure(t *testing.T) {
	r := analyze(t, `
struct node { int v; struct node *next; };
struct node *mk(int v) {
  struct node *n;
  n = alloc();
  n->v = v;
  n->next = NULL;
  return n;
}
`)
	s := r.Summary("mk")
	if !s.Pure {
		t.Errorf("mk not pure: %s", s.EffectsLine())
	}
	if len(s.Writes) != 0 {
		t.Errorf("fresh-only stores counted as writes: %v", s.Writes)
	}
	if !s.Allocs {
		t.Errorf("mk does not allocate: %s", s.EffectsLine())
	}
	if !s.ret.fresh || s.ret.heap || s.ret.top {
		t.Errorf("ret = %+v, want fresh-only", s.ret)
	}
}

func TestParamWriteEscapes(t *testing.T) {
	r := analyze(t, `
struct node { int v; struct node *next; };
void set(struct node *n, int v) {
  n->v = v;
}
void caller(struct node *m) {
  set(m, 3);
}
`)
	s := r.Summary("set")
	if s.Pure {
		t.Error("set should not be pure: writes through a parameter")
	}
	if !reflect.DeepEqual(s.Writes, []Region{{"node", "v"}}) {
		t.Errorf("Writes = %v, want [node.v]", s.Writes)
	}
	if !reflect.DeepEqual(s.Escapes, []string{"n"}) {
		t.Errorf("Escapes = %v, want [n]", s.Escapes)
	}
	// The effect propagates interprocedurally to the caller.
	c := r.Summary("caller")
	if c.Pure {
		t.Error("caller should inherit set's impurity")
	}
	if !reflect.DeepEqual(c.Writes, []Region{{"node", "v"}}) {
		t.Errorf("caller Writes = %v, want [node.v]", c.Writes)
	}
	if !reflect.DeepEqual(c.Escapes, []string{"m"}) {
		t.Errorf("caller Escapes = %v, want [m]", c.Escapes)
	}
}

func TestExternPoisonsEverything(t *testing.T) {
	r := analyze(t, `
struct node { int v; };
int f(struct node *n) {
  return mystery(n);
}
`)
	s := r.Summary("f")
	if s.Pure {
		t.Error("extern call should break purity")
	}
	if !reflect.DeepEqual(s.Extern, []string{"mystery"}) {
		t.Errorf("Extern = %v, want [mystery]", s.Extern)
	}
	if !reflect.DeepEqual(s.Escapes, []string{"n"}) {
		t.Errorf("Escapes = %v, want [n] (pointer arg to extern)", s.Escapes)
	}
	if s.Returns || !s.Allocs {
		t.Errorf("returns=%v allocs=%v, want false,true (nothing is known about mystery)", s.Returns, s.Allocs)
	}
}

func TestMutualRecursionTops(t *testing.T) {
	r := analyze(t, `
struct node { struct node *next; };
void ping(struct node *n) { pong(n); }
void pong(struct node *n) { ping(n); }
`)
	for _, name := range []string{"ping", "pong"} {
		s := r.Summary(name)
		if !s.Mutual {
			t.Errorf("%s: Mutual = false, want true", name)
		}
		if s.Returns {
			t.Errorf("%s: Returns = true, want false (mutual recursion is not followed)", name)
		}
	}
}

// TestUnknownStartStillReturns: a start value the analysis cannot see
// leaves the iteration count unknown, not the outcome — i starts a million
// below the limit here and still gets there. "No number" must not be read
// as "may not return".
func TestUnknownStartStillReturns(t *testing.T) {
	r := analyze(t, `
struct node { int v; };
int creep(int n) {
  int i;
  i = 0 - 1000000;
  while (i < 10) {
    i = i + 1;
  }
  return i;
}
`)
	if s := r.Summary("creep"); !s.Returns {
		t.Errorf("creep may not return: %s", s.EffectsLine())
	}
}

// TestConditionalAdvanceTops: a pointer chase that only advances on some
// paths can spin forever.
func TestConditionalAdvanceTops(t *testing.T) {
	r := analyze(t, `
struct node { int v; struct node *next; };
void stall(struct node *p, int c) {
  while (p) {
    if (c) p = p->next;
    c = 0;
  }
}
`)
	if s := r.Summary("stall"); s.Returns {
		t.Error("stall Returns = true, want false (advance only on some paths)")
	}
}

// TestConflictingStepsTop: branch-dependent steps whose net change may be
// zero or negative prove no progress toward the limit.
func TestConflictingStepsTop(t *testing.T) {
	r := analyze(t, `
struct node { int v; };
int wobble(int n) {
  int i;
  i = 0;
  while (i < 10) {
    if (n) i = i - 1;
    if (n) i = i + 1;
  }
  return i;
}
`)
	if s := r.Summary("wobble"); s.Returns {
		t.Error("wobble Returns = true, want false (net step may be zero)")
	}
}

// TestEveryPathAdvanceKeepsBound: the bisort shape — both branches of the
// body advance the chased pointer — is still a walk that ends.
func TestEveryPathAdvanceKeepsBound(t *testing.T) {
	r := analyze(t, `
struct tree { int v; struct tree *left; struct tree *right; };
int descend(struct tree *pl, int dir) {
  while (pl) {
    if (pl->v == dir) {
      pl = pl->left;
    } else {
      pl = pl->right;
    }
  }
  return dir;
}
`)
	if s := r.Summary("descend"); !s.Returns {
		t.Errorf("descend may not return: %s", s.EffectsLine())
	}
}

// TestDownwardCountedLoop: a negative step toward a literal limit below
// ends the loop.
func TestDownwardCountedLoop(t *testing.T) {
	r := analyze(t, `
struct node { int v; };
int drain(int n) {
  int i;
  int s;
  s = 0;
  for (i = 10; i > 0; i = i - 1) {
    s = s + i;
  }
  return s;
}
`)
	if s := r.Summary("drain"); !s.Returns {
		t.Errorf("drain may not return: %s", s.EffectsLine())
	}
}

// TestMovingLimitMayNotReturn: a counter stepping toward a limit proves
// nothing when the loop moves the limit too — both loops here run forever
// for any n > 0.
func TestMovingLimitMayNotReturn(t *testing.T) {
	r := analyze(t, `
struct node { int v; };
int chase(int n) {
  int i;
  i = 0;
  while (i < n) {
    i = i + 1;
    n = n + 1;
  }
  return i;
}
int stretch(int n) {
  int i;
  for (i = 0; i < n; i = i + 1) {
    n = n + 2;
  }
  return i;
}
`)
	for _, name := range []string{"chase", "stretch"} {
		if s := r.Summary(name); s.Returns {
			t.Errorf("%s Returns = true, want false (the loop assigns its own limit)", name)
		}
	}
}

// TestHugeNestedLoopsReturn: three counted loops return however large the
// product of their trip counts — 6.4e28 iterations here, which the bound
// arithmetic could only call ⊤ once it overflowed int64.
func TestHugeNestedLoopsReturn(t *testing.T) {
	r := analyze(t, `
struct node { int v; };
int burn() {
  int i;
  int j;
  int k;
  int s;
  s = 0;
  for (i = 0; i < 4000000000; i = i + 1) {
    for (j = 0; j < 4000000000; j = j + 1) {
      for (k = 0; k < 4000000000; k = k + 1) {
        s = s + 1;
      }
    }
  }
  return s;
}
`)
	if s := r.Summary("burn"); !s.Returns {
		t.Errorf("burn may not return: %s", s.EffectsLine())
	}
}

func TestUnboundedLoopTops(t *testing.T) {
	r := analyze(t, `
struct node { int v; };
void spin(struct node *n) {
  while (1) {
    n->v = 0;
  }
}
`)
	if s := r.Summary("spin"); s.Returns {
		t.Error("spin Returns = true, want false (while(1))")
	}
}
