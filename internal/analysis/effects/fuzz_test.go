package effects

import (
	"testing"

	"repro/internal/core"
)

// effectsSeeds are whole mini-C programs exercising the shapes the
// summary analysis distinguishes: deep call chains (summaries compose
// bottom-up through five frames), direct and mutual recursion (SCC
// fixpoints), aliased and fresh writes (the aval lattice), extern
// calls, unbounded and counted loops, and allocation in a loop.
var effectsSeeds = []string{
	"",
	"int main() { return 0; }",
	// Deep call chain: effects must propagate through all five frames,
	// with the write at the bottom surfacing at the top.
	`struct node { int v; struct node *next; };
void f5(struct node *n) { n->v = 1; }
void f4(struct node *n) { f5(n->next); }
void f3(struct node *n) { f4(n); }
void f2(struct node *n) { f3(n->next); }
void f1(struct node *n) { f2(n); }`,
	// Direct recursion over a tree: pure, structural, returns.
	`struct tree { int val; struct tree *left; struct tree *right; };
int sum(struct tree *t) {
  if (t == 0) return 0;
  return t->val + sum(t->left) + sum(t->right);
}`,
	// Mutual recursion: the SCC fixpoint must converge; neither returns.
	`struct s { int v; struct s *n; };
int ping(struct s *p);
int pong(struct s *p) { if (p == 0) return 0; return ping(p->n); }
int ping(struct s *p) { if (p == 0) return 1; return pong(p->n); }`,
	// Aliased write inside a pointer-chasing loop.
	`struct node { int v; struct node *next; };
void rewire(struct node *l, struct node *m) {
  while (l) {
    m->next = l->next;
    l = l->next;
  }
}`,
	// Fresh allocation: writes to just-allocated objects stay pure.
	`struct node { int v; struct node *next; };
struct node *mk(int n) {
  struct node *p;
  p = alloc(0);
  p->v = n;
  p->next = 0;
  return p;
}`,
	// Extern call: poisons purity and both cost bits.
	`struct s { int v; };
int mystery(struct s *p);
int f(struct s *p) { return mystery(p); }`,
	// A loop with no progress argument that allocates: both cost bits.
	`struct node { int v; struct node *next; };
void grow(struct node *l) {
  struct node *n;
  while (l) {
    n = alloc(0);
    n->next = l;
    l = n;
  }
}`,
	// Counted loops: one to a variable limit, one to a literal.
	`int f(int n) {
  int i;
  int t;
  t = 0;
  for (i = 0; i < n; i = i + 1) { t = t + i; }
  i = 0;
  while (i < 10) { i = i + 1; }
  return t;
}`,
	// Allocation inside a pointer-chasing loop: the stores go to fresh
	// objects, so they are not writes, and the walk still returns.
	`struct node { int v; struct node *next; };
void f(struct node *l) {
  struct node *m;
  while (l) {
    m = alloc(0);
    m->v = 3;
    l = l->next;
  }
}`,
	"int bad( { ;;; }",
}

// FuzzEffects checks the whole analysis pipeline — parse, alias
// dataflow, SCC fixpoint, cost bits — never panics on any parseable
// input, and that accepted programs analyze deterministically: a second
// run must reproduce every function's effect summary.
func FuzzEffects(f *testing.F) {
	for _, s := range effectsSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Analysis cost is superlinear in program size (SCC fixpoints,
		// per-function dataflow); bound the input so the fuzzer explores
		// program shapes rather than sheer bulk.
		if len(src) > 1<<14 {
			return
		}
		res, err := AnalyzeSource(src, core.DefaultParams())
		if err != nil {
			return // parse or analysis rejection is fine; panics are not
		}
		if res == nil {
			t.Fatal("nil result without error")
		}
		again, err := AnalyzeSource(src, core.DefaultParams())
		if err != nil {
			t.Fatalf("accepted input rejected on re-analysis: %v", err)
		}
		if len(again.Summaries) != len(res.Summaries) {
			t.Fatalf("summary count not deterministic: %d vs %d", len(again.Summaries), len(res.Summaries))
		}
		for i, s := range res.Summaries {
			a := again.Summaries[i]
			if a.Name != s.Name || a.EffectsLine() != s.EffectsLine() {
				t.Fatalf("summary %d not deterministic:\n %s: %s\nvs %s: %s",
					i, s.Name, s.EffectsLine(), a.Name, a.EffectsLine())
			}
		}
	})
}
