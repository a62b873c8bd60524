package lang

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
  if (t == NULL) return 0;
  else return touch(futurecall(TreeAdd(t->left))) + TreeAdd(t->right) + t->val;
}
`

func TestParseTreeAdd(t *testing.T) {
	prog, err := Parse(treeAddSrc)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Struct("tree")
	if s == nil {
		t.Fatal("struct tree not found")
	}
	if got := s.Field("left").Affinity; got != 90 {
		t.Errorf("left affinity = %d", got)
	}
	if got := s.Field("right").Affinity; got != 70 {
		t.Errorf("right affinity = %d", got)
	}
	if got := s.Field("val").Affinity; got != -1 {
		t.Errorf("val affinity = %d; want unannotated", got)
	}
	f := prog.Func("TreeAdd")
	if f == nil {
		t.Fatal("TreeAdd not found")
	}
	if len(f.Params) != 1 || f.Params[0].Type != (Type{Kind: TypePtr, Struct: "tree"}) {
		t.Fatalf("params = %+v", f.Params)
	}
	iff, ok := f.Body.Stmts[0].(*If)
	if !ok {
		t.Fatalf("body[0] = %T", f.Body.Stmts[0])
	}
	ret, ok := iff.Else.(*Return)
	if !ok {
		t.Fatalf("else = %T", iff.Else)
	}
	// touch(futurecall(...)) + TreeAdd(...) + t->val
	sum, ok := ret.E.(*Binary)
	if !ok || sum.Op != "+" {
		t.Fatalf("return expr = %#v", ret.E)
	}
	inner, ok := sum.L.(*Binary)
	if !ok {
		t.Fatalf("left of sum = %T", sum.L)
	}
	tch, ok := inner.L.(*Touch)
	if !ok {
		t.Fatalf("first operand = %T; want Touch", inner.L)
	}
	fc, ok := tch.E.(*Call)
	if !ok || !fc.Future {
		t.Fatalf("touch operand = %#v; want futurecall", tch.E)
	}
	if arrow, ok := fc.Args[0].(*Arrow); !ok || arrow.Field != "left" {
		t.Fatalf("futurecall arg = %#v", fc.Args[0])
	}
	if c, ok := inner.R.(*Call); !ok || c.Future {
		t.Fatalf("second call = %#v; must not be a future", inner.R)
	}
}

func TestParseFigure3Loop(t *testing.T) {
	src := `
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
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	w, ok := f.Body.Stmts[0].(*While)
	if !ok {
		t.Fatalf("body[0] = %T", f.Body.Stmts[0])
	}
	body := w.Body.(*Block)
	if len(body.Stmts) != 3 {
		t.Fatalf("loop body has %d stmts", len(body.Stmts))
	}
	a := body.Stmts[1].(*Assign)
	// t = t->right->left
	outer := a.RHS.(*Arrow)
	if outer.Field != "left" {
		t.Fatalf("outer field = %s", outer.Field)
	}
	innerA := outer.X.(*Arrow)
	if innerA.Field != "right" {
		t.Fatalf("inner field = %s", innerA.Field)
	}
}

func TestParseForLoop(t *testing.T) {
	src := `
struct list { int v; struct list *next; };
int sum(struct list *l) {
  int acc = 0;
  for (l = l; l != NULL; l = l->next) {
    acc = acc + l->v;
  }
  return acc;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("sum")
	if _, ok := f.Body.Stmts[1].(*For); !ok {
		t.Fatalf("body[1] = %T", f.Body.Stmts[1])
	}
}

func TestParseVoidParams(t *testing.T) {
	prog, err := Parse(`int f(void) { return 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Func("f").Params) != 0 {
		t.Fatal("void parameter list must be empty")
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse(`int f(int a, int b) { return a + b * 2 == a; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Func("f").Body.Stmts[0].(*Return)
	eq := ret.E.(*Binary)
	if eq.Op != "==" {
		t.Fatalf("top op = %s", eq.Op)
	}
	plus := eq.L.(*Binary)
	if plus.Op != "+" {
		t.Fatalf("left op = %s", plus.Op)
	}
	if mul := plus.R.(*Binary); mul.Op != "*" {
		t.Fatalf("inner op = %s", mul.Op)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`struct t { int v }`, "expected"},
		{`int f() { return 1 }`, "expected"},
		{`int f() { 1 = 2; }`, "assignment target"},
		{`int f() { futurecall(3); }`, "futurecall requires"},
		{`int f() { return @; }`, "unexpected character"},
	}
	// Out-of-range affinities parse (range checking is a lint
	// diagnostic, not a parse failure) and carry the raw value.
	prog, err := Parse(`struct t { struct t *n __affinity(150); };`)
	if err != nil {
		t.Errorf("out-of-range affinity must parse: %v", err)
	} else if got := prog.Struct("t").Field("n").Affinity; got != 150 {
		t.Errorf("raw affinity = %d; want 150", got)
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%q: expected error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not mention %q", c.src, err, c.want)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
// line comment
struct t { int v; /* inline */ };
int f(struct t *p) {
  /* block
     comment */
  return p->v; // trailing
}
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}
