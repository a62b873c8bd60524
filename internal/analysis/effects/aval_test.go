package effects

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestEnvLattice pins the environment join: nil is a distinguished
// bottom, a key absent from one side keeps the other side's value, absent
// keys compare as aval{}, and join never mutates its arguments.
func TestEnvLattice(t *testing.T) {
	a := env{"x": {null: true}, "y": {heap: true}}
	b := env{"x": {fresh: true}, "z": {params: 1}}
	want := env{"x": {null: true, fresh: true}, "y": {heap: true}, "z": {params: 1}}
	if j := joinEnv(a, b); !reflect.DeepEqual(j, want) {
		t.Fatalf("joinEnv = %v, want %v", j, want)
	}
	if a["x"] != (aval{null: true}) || len(b) != 2 {
		t.Fatal("joinEnv mutated an argument")
	}
	if got := joinEnv(nil, a); !reflect.DeepEqual(got, a) {
		t.Fatalf("joinEnv(bottom, a) = %v", got)
	}
	if got := joinEnv(a, nil); !reflect.DeepEqual(got, a) {
		t.Fatalf("joinEnv(a, bottom) = %v", got)
	}
	if !equalEnv(env{"x": {top: true}, "y": {}}, env{"x": {top: true}}) {
		t.Error("a key at aval{} must equal its absence")
	}
	if equalEnv(nil, env{}) {
		t.Error("nil (unreachable) must differ from an empty environment")
	}
	if equalEnv(a, b) {
		t.Error("distinct environments compare equal")
	}
}

// An alias flow whose transfer is not monotone: h1(t0, q) reads t0 as ⊤
// until its declaration reaches the call, and as heap after. A worklist
// that recomputes each block from its predecessors oscillated here
// forever; the fold's loop heads only grow.
const oscillatingAliasFlow = `
struct n { int v; struct n *a; struct n *b; struct n *c; };
struct n *h1(struct n *x, struct n *y) { if (x->v) return x; return y->c; }
void w1(struct n *p, struct n *q, int k) {
  for (p = p->a; p != NULL; p = h1(p->b, p)) {
    p = q;
    while (q->v) {
      while (q != NULL) {
        struct n *t0 = h1(q->b, q);
        t0 = t0->a->c;
        q = p->a;
      }
      for (p = q; p != NULL; p = p) {
        t0 = t0->a->c;
      }
      if (1) {
        p = p;
        q = t0->a;
      } else {
        q = touch(futurecall(h1(t0, q)));
      }
    }
    if (p->v) {
      w1(NULL, p, k);
    } else return;
  }
}
`

func TestAliasFlowTerminates(t *testing.T) {
	res, err := AnalyzeSource(oscillatingAliasFlow, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := "reads={n.a,n.b,n.c,n.v} writes={} escapes={} pure=true parallel recursive may-not-return"
	if got := res.Summary("w1").EffectsLine(); got != want {
		t.Errorf("w1: %s\nwant %s", got, want)
	}
}
