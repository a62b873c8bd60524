package core

import (
	"flag"
	"maps"
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

// The paper's figure sources: 3 and 4 lint clean; 5 surfaces the
// bottleneck demotion the second heuristic pass makes silently.
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

// The paper's figures carry exactly one diagnostic between them, figure
// 5's demotion; the repo-level kernels test asserts the ten benchmark
// kernels lint clean through the public facade.
func TestLintFiguresOnlyKnownDiags(t *testing.T) {
	want := map[string]int{"bottleneck-demotion": 1}
	got := map[string]int{}
	for _, src := range []string{figure3, figure4, figure5} {
		for _, d := range lintOf(t, src) {
			got[d.Code]++
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("figure diagnostics %v, want %v", got, want)
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
