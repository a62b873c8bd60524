package phases

import (
	"strings"
	"testing"
)

const treeAddSrc = `
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

const em3dSrc = `
struct node {
  float value;
  struct node *next;
  struct node *from;
  float coeff;
};

void compute_node(struct node *n) {
  n->value = n->value - n->from->value * n->coeff;
}

void all_compute(struct node *l) {
  while (l) {
    futurecall(compute_node(l));
    l = l->next;
  }
}
`

const unboundedSrc = `
struct node {
  int v;
  struct node *next;
};

void spin(struct node *n) {
  while (1) {
    n->v = 0;
  }
}
`

func mustPlan(t *testing.T, src string, opt Options) *Plan {
	t.Helper()
	p, err := ComputeSource(src, opt)
	if err != nil {
		t.Fatalf("ComputeSource: %v", err)
	}
	return p
}

func TestTreeAddCertified(t *testing.T) {
	p := mustPlan(t, treeAddSrc, Options{IncludeBuild: true})
	if got, want := len(p.Entries), 1; got != want {
		t.Fatalf("entries = %v, want 1", p.Entries)
	}
	if p.Entries[0] != "TreeAdd" {
		t.Fatalf("entry = %q, want TreeAdd", p.Entries[0])
	}
	// build + two compute phases: the sequenced recursive calls are the
	// heavy statements, the guard and declarations ride with the first,
	// the return with the second.
	if len(p.Phases) != 3 {
		t.Fatalf("phases = %d, want 3\n%s", len(p.Phases), p)
	}
	if p.Phases[0].Kind != KindBuild || !p.Phases[0].Invariant {
		t.Fatalf("build phase not invariant: %+v", p.Phases[0])
	}
	for _, ph := range p.Phases[1:] {
		if ph.Fn != "TreeAdd" || ph.Kind != KindCompute {
			t.Fatalf("compute phase mislabelled: %+v", ph)
		}
		if !ph.Invariant {
			t.Fatalf("migrate-only phase should be invariant: %+v", ph)
		}
		if ph.MigrateSites == 0 || ph.CacheSites != 0 {
			t.Fatalf("TreeAdd sites: %+v", ph)
		}
	}
	if !p.Phases[1].Parallel {
		t.Fatalf("futurecall phase not marked parallel: %+v", p.Phases[1])
	}
	if !p.Certified || p.Refused {
		t.Fatalf("TreeAdd should certify: %s", p)
	}
	if p.InvariantPrefix != 3 {
		t.Fatalf("invariant prefix = %d, want 3", p.InvariantPrefix)
	}
}

func TestEm3dMixedPrefix(t *testing.T) {
	p := mustPlan(t, em3dSrc, Options{IncludeBuild: true})
	// compute_node is called by all_compute, so the only entry is the
	// driver loop: build + one compute phase.
	if len(p.Entries) != 1 || p.Entries[0] != "all_compute" {
		t.Fatalf("entries = %v, want [all_compute]", p.Entries)
	}
	if len(p.Phases) != 2 {
		t.Fatalf("phases = %d, want 2\n%s", len(p.Phases), p)
	}
	ph := p.Phases[1]
	if ph.Invariant {
		t.Fatalf("mixed-mechanism phase must not be invariant: %+v", ph)
	}
	if !hasReason(ph.Reasons, "mixed-mechanisms") {
		t.Fatalf("reasons = %v, want mixed-mechanisms", ph.Reasons)
	}
	if p.Certified {
		t.Fatalf("em3d must not certify end to end")
	}
	if p.Refused {
		t.Fatalf("em3d must not be refused: %v", p.Reasons)
	}
	if p.InvariantPrefix != 1 {
		t.Fatalf("invariant prefix = %d, want 1 (build only)", p.InvariantPrefix)
	}
}

func TestUnboundedRefused(t *testing.T) {
	p := mustPlan(t, unboundedSrc, Options{IncludeBuild: true})
	if !p.Refused {
		t.Fatalf("unbounded kernel must be refused:\n%s", p)
	}
	if !hasReason(p.Reasons, "unbounded-steps:spin") {
		t.Fatalf("reasons = %v, want unbounded-steps:spin", p.Reasons)
	}
	// The compute chain is voided, but the synthetic build phase is
	// invariant by harness construction and survives the refusal.
	if p.InvariantPrefix != 1 {
		t.Fatalf("refused plan with a build phase must have prefix 1, got %d", p.InvariantPrefix)
	}
	if p.Certified {
		t.Fatalf("refused plan cannot certify")
	}
	// Without the harness build phase nothing at all survives.
	bare := mustPlan(t, unboundedSrc, Options{})
	if bare.InvariantPrefix != 0 {
		t.Fatalf("refused bare plan must have prefix 0, got %d", bare.InvariantPrefix)
	}
}

func TestNoEntryRefused(t *testing.T) {
	p := mustPlan(t, "struct node { int v; };", Options{})
	if !p.Refused || !hasReason(p.Reasons, "no-entry-function") {
		t.Fatalf("empty program: refused=%t reasons=%v", p.Refused, p.Reasons)
	}
}

func TestExternPoisonsBoundsAndRefuses(t *testing.T) {
	// Nothing is known about an extern callee, so the effect analysis
	// cannot say its caller returns and the plan is refused — but the
	// phase that actually makes the call still carries the
	// machine-readable extern reason.
	src := `
struct node { int v; struct node *next __affinity(90); };
int walk(struct node *l) {
  int n;
  n = 0;
  while (l) {
    n = n + l->v;
    l = l->next;
  }
  n = mystery(n);
  return n;
}
`
	p := mustPlan(t, src, Options{IncludeBuild: true})
	if !p.Refused || !hasReason(p.Reasons, "unbounded-steps:walk") {
		t.Fatalf("extern kernel: refused=%t reasons=%v", p.Refused, p.Reasons)
	}
	if p.InvariantPrefix != 1 {
		t.Fatalf("build prefix should survive, got %d", p.InvariantPrefix)
	}
	if len(p.Phases) != 3 {
		t.Fatalf("phases = %d, want 3 (build, loop, extern)\n%s", len(p.Phases), p)
	}
	last := p.Phases[2]
	if last.Invariant || !hasReason(last.Reasons, "extern-call:mystery") {
		t.Fatalf("extern phase verdict: %+v", last)
	}
}

// TestMovingLimitRefused: a loop that keeps moving its own limit never
// reaches it, so no phase boundary after it is guaranteed.
func TestMovingLimitRefused(t *testing.T) {
	p := mustPlan(t, `
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
`, Options{})
	if !p.Refused || p.Certified ||
		!hasReason(p.Reasons, "unbounded-steps:chase") || !hasReason(p.Reasons, "unbounded-steps:stretch") {
		t.Fatalf("moving-limit loops must be refused:\n%s", p)
	}
}

func TestMultiEntrySourceOrder(t *testing.T) {
	src := `
struct tree { struct tree *left; struct tree *right; };
void Traverse(struct tree *t) {
  if (t == NULL) return;
  Traverse(t->left);
  Traverse(t->right);
}
void Drive(struct tree *t) {
  Traverse(t);
}
void Other(struct tree *t) {
  Traverse(t);
}
`
	p := mustPlan(t, src, Options{})
	if len(p.Entries) != 2 || p.Entries[0] != "Drive" || p.Entries[1] != "Other" {
		t.Fatalf("entries = %v, want [Drive Other]", p.Entries)
	}
	for i, ph := range p.Phases {
		if ph.Index != i {
			t.Fatalf("phase %d has index %d", i, ph.Index)
		}
	}
}

func TestHumanRenderingMentionsRefusal(t *testing.T) {
	p := mustPlan(t, unboundedSrc, Options{})
	s := p.String()
	if !strings.Contains(s, "REFUSED") || !strings.Contains(s, "unbounded-steps:spin") {
		t.Fatalf("rendering missing refusal:\n%s", s)
	}
}

func hasReason(rs []string, want string) bool {
	for _, r := range rs {
		if r == want {
			return true
		}
	}
	return false
}
