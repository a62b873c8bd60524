package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lang"
)

var update = flag.Bool("update", false, "rewrite lint golden files")

// lintGolden compares the lint output of src against a golden file — the
// same rendering `oldenc -lint` emits.
func lintGolden(t *testing.T, name, src string) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got := LintString(Analyze(prog, DefaultParams()).Lint())
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("lint output mismatch for %s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// The paper's figure sources: 4 lints clean; 3 carries a genuine dead
// store (u is assigned in the loop and never read — the figure only needs
// it to show a non-induction matrix row); 5 surfaces the bottleneck
// demotion the second heuristic pass makes silently.
func TestLintGoldenFigure3(t *testing.T) { lintGolden(t, "lint_figure3.golden", figure3) }
func TestLintGoldenFigure4(t *testing.T) { lintGolden(t, "lint_figure4.golden", figure4) }
func TestLintGoldenFigure5(t *testing.T) { lintGolden(t, "lint_figure5.golden", figure5) }

func lintOf(t *testing.T, src string) []Diag {
	t.Helper()
	return analyze(t, src).Lint()
}

func hasDiag(diags []Diag, code, substr string) bool {
	for _, d := range diags {
		if d.Code == code && strings.Contains(d.Msg, substr) {
			return true
		}
	}
	return false
}

func TestLintAffinityRange(t *testing.T) {
	diags := lintOf(t, `
struct n { struct n *next __affinity(150); };
void f(struct n *l) { while (l) { l = l->next; } }
`)
	if !hasDiag(diags, "affinity-range", "150%") {
		t.Fatalf("missing affinity-range diagnostic: %v", diags)
	}
	if diags[0].Sev != DiagError {
		t.Fatal("affinity-range must be an error")
	}
}

func TestLintUnusedAffinity(t *testing.T) {
	diags := lintOf(t, `
struct n { struct n *next __affinity(80); struct n *prev __affinity(80); };
void f(struct n *l) { while (l) { l = l->next; } }
`)
	if !hasDiag(diags, "unused-affinity", "n.prev") {
		t.Fatalf("missing unused-affinity for n.prev: %v", diags)
	}
	if hasDiag(diags, "unused-affinity", "n.next") {
		t.Fatalf("n.next is live in a loop; must not be flagged: %v", diags)
	}
}

// A hint used only by a recursion control loop (the whole body of a
// recursive function) is live.
func TestLintRecursionBodyCountsAsLoop(t *testing.T) {
	diags := lintOf(t, `
struct tree { struct tree *left __affinity(90); };
void g(struct tree *t) {
  if (t == NULL) return;
  g(t->left);
}
`)
	if hasDiag(diags, "unused-affinity", "tree.left") {
		t.Fatalf("recursion body is a control loop: %v", diags)
	}
}

func TestLintShadowedInduction(t *testing.T) {
	diags := lintOf(t, `
struct tree { struct tree *left __affinity(95); struct tree *right __affinity(95); };
void g(struct tree *t) {
  if (t == NULL) return;
  g(t->left);
  g(t->right);
  while (t) { t = t->left; }
}
`)
	if !hasDiag(diags, "shadowed-induction", `"t"`) {
		t.Fatalf("missing shadowed-induction: %v", diags)
	}
}

// Inheritance (a loop without an induction variable migrating on its
// parent's) is deliberate behaviour, not shadowing.
func TestLintInheritanceIsNotShadowing(t *testing.T) {
	diags := lintOf(t, `
struct tree { struct tree *left __affinity(95); struct tree *right __affinity(95); int n; };
void g(struct tree *t) {
  if (t == NULL) return;
  int i = 0;
  while (i < t->n) { i = i + 1; }
  g(t->left);
  g(t->right);
}
`)
	if hasDiag(diags, "shadowed-induction", "") {
		t.Fatalf("inherited loop flagged as shadowing: %v", diags)
	}
}

func TestLintBottleneckDemotion(t *testing.T) {
	diags := lintOf(t, figure5)
	if !hasDiag(diags, "bottleneck-demotion", "Traverse/rec") {
		t.Fatalf("missing bottleneck-demotion: %v", diags)
	}
}

func TestLintDiagsSortedByPosition(t *testing.T) {
	diags := lintOf(t, `
struct a { struct a *x __affinity(120); };
struct b { struct b *y __affinity(130); };
void f(struct a *p) { return; }
`)
	if len(diags) < 2 {
		t.Fatalf("want several diagnostics, got %v", diags)
	}
	for i := 1; i < len(diags); i++ {
		if diags[i].Pos.Line < diags[i-1].Pos.Line {
			t.Fatalf("diagnostics not sorted: %v", diags)
		}
	}
}

// ---- dataflow lints (lintflow.go) ----

func TestLintUseBeforeInit(t *testing.T) {
	diags := lintOf(t, `
struct n { struct n *next; int v; };
int f(struct n *l, int c) {
  struct n *p;
  if (c) { p = l; }
  return p->v;
}
`)
	if !hasDiag(diags, "use-before-init", `"p"`) {
		t.Fatalf("missing use-before-init for p: %v", diags)
	}
}

func TestLintUseBeforeInitCleanWhenAssignedOnEveryPath(t *testing.T) {
	diags := lintOf(t, `
struct n { struct n *next; int v; };
int f(struct n *l, int c) {
  struct n *p;
  if (c) { p = l; } else { p = l->next; }
  return p->v;
}
`)
	if hasDiag(diags, "use-before-init", "") {
		t.Fatalf("p is assigned on every path: %v", diags)
	}
}

func TestLintDeadStore(t *testing.T) {
	if !hasDiag(lintOf(t, figure3), "dead-store", `"u"`) {
		t.Fatalf("figure3's u = s->right is a dead store")
	}
}

func TestLintDeadStoreCleanAcrossBackEdge(t *testing.T) {
	diags := lintOf(t, `
struct n { struct n *next; int v; };
int f(struct n *l) {
  int c;
  c = 0;
  while (l != NULL) {
    c = c + 1;
    l->v = 5;
    l = l->next;
  }
  return c;
}
`)
	// c = c + 1 is live only through the loop's back edge and the final
	// return; l->v = 5 is a heap store and never a dead store.
	if hasDiag(diags, "dead-store", "") {
		t.Fatalf("no store here is dead: %v", diags)
	}
}

// TestLintUnreachable wants one diagnostic per dead region, at its first
// statement or condition, including regions that start where nothing is
// left to execute and run into a loop or a join.
func TestLintUnreachable(t *testing.T) {
	cases := []struct {
		name, body string
		want       []string // positions of the unreachable diagnostics
	}{
		{"if (0) body, post-return", "  if (0) { l = l->next; }\n  return 0;\n  l = l->next;", []string{"3:12", "5:3"}},
		{"loop after a return", "  return 0;\n  while (l) { l = l->next; }", []string{"4:3"}},
		{"for (;;) after a return", "  return 0;\n  for (;;) { l = l->next; }", []string{"4:14"}},
		{"loop after an endless loop", "  while (1) { l = l->next; }\n  while (l) { l = l->next; }\n  return 0;", []string{"4:3"}},
		{"join of two returning arms", "  if (l) { return 0; } else { return 1; }\n  l = l->next;\n  return 2;", []string{"4:3"}},
	}
	for _, c := range cases {
		diags := lintOf(t, "struct n { struct n *next; int v; };\nint f(struct n *l) {\n"+c.body+"\n}\n")
		var got []string
		for _, d := range diags {
			if d.Code == "unreachable" {
				got = append(got, d.Pos.String())
			}
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%s: unreachable at %v, want %v\n%v", c.name, got, c.want, diags)
		}
	}
}

// TestReachableConstantBranches checks the reachability fold's pruning: a
// constant-false branch and the code after while (1) are dead.
func TestReachableConstantBranches(t *testing.T) {
	prog, err := lang.Parse(`
struct n { struct n *next; };
int f(struct n *s) {
  int a;
  a = 1;
  if (0) { a = 2; }
  while (1) { a = a + 1; }
  return a;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Funcs[0].Body.Stmts
	dead, _ := lintUnreachable(prog.Funcs[0])
	ifZero := body[2].(*lang.If).Then.(*lang.Block).Stmts[0]
	loop := body[3].(*lang.While)
	switch {
	case dead[body[1]] || dead[loop.Cond] || dead[loop.Body.(*lang.Block).Stmts[0]]:
		t.Error("live code marked dead")
	case !dead[ifZero]:
		t.Error("if (0) body should be unreachable")
	case !dead[body[4]]:
		t.Error("code after while (1) should be unreachable")
	}
}

func TestLintUnreachableCleanOnFigures(t *testing.T) {
	for _, src := range []string{figure3, figure4, figure5, defaultsSrc} {
		if hasDiag(lintOf(t, src), "unreachable", "") {
			t.Fatal("figure sources have no unreachable code")
		}
	}
}

func TestLintNilDeref(t *testing.T) {
	diags := lintOf(t, `
struct n { struct n *next; int v; };
void f(struct n *p) {
  if (p == NULL) { p->v = 1; }
}
void g(struct n *q) {
  q = NULL;
  q->v = 2;
}
`)
	if !hasDiag(diags, "nil-deref", `"p"`) {
		t.Fatalf("missing nil-deref inside p == NULL branch: %v", diags)
	}
	if !hasDiag(diags, "nil-deref", `"q"`) {
		t.Fatalf("missing nil-deref after q = NULL: %v", diags)
	}
	for _, d := range diags {
		if d.Code == "nil-deref" && d.Sev != DiagError {
			t.Fatalf("nil-deref must be an error: %v", d)
		}
	}
}

func TestLintNilDerefGuardIdiomClean(t *testing.T) {
	diags := lintOf(t, `
struct n { struct n *next; int v; };
int f(struct n *p) {
  if (p == NULL) return 0;
  return p->v + f(p->next);
}
int g(struct n *p) {
  if (p != NULL) { return p->v; }
  return 0;
}
`)
	if hasDiag(diags, "nil-deref", "") {
		t.Fatalf("guarded dereferences must not be flagged: %v", diags)
	}
}

// The ten benchmark kernels must stay clean under every lint — the
// repo-level kernels test asserts the same through the public facade.
func TestLintFiguresOnlyKnownDiags(t *testing.T) {
	want := map[string]int{"dead-store": 1}
	got := map[string]int{}
	for _, d := range lintOf(t, figure3) {
		got[d.Code]++
	}
	for code, n := range got {
		if want[code] != n {
			t.Fatalf("figure3 diag %s ×%d unexpected (all: %v)", code, n, got)
		}
	}
}

// Lint output must be deterministically ordered: position ascending, and
// errors before warnings at the same position.
func TestLintOrderingInvariant(t *testing.T) {
	diags := lintOf(t, `
struct a { struct a *x __affinity(120); struct a *y __affinity(80); };
void f(struct a *p) {
  struct a *q;
  if (p == NULL) { p->x = q; }
  return;
  p = p->y;
}
`)
	if len(diags) < 3 {
		t.Fatalf("want a busy program, got %v", diags)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		switch {
		case a.Pos.Line > b.Pos.Line:
			t.Fatalf("line order violated: %v before %v", a, b)
		case a.Pos.Line == b.Pos.Line && a.Pos.Col > b.Pos.Col:
			t.Fatalf("column order violated: %v before %v", a, b)
		case a.Pos.Line == b.Pos.Line && a.Pos.Col == b.Pos.Col && a.Sev < b.Sev:
			t.Fatalf("severity order violated: %v before %v", a, b)
		}
	}
}
