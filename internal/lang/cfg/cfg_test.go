package cfg

import (
	"math/rand"
	"testing"

	"repro/internal/lang"
)

// parseFn parses a source and returns the named function.
func parseFn(t *testing.T, src, name string) *lang.FuncDecl {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := prog.Func(name)
	if fn == nil {
		t.Fatalf("no function %q", name)
	}
	return fn
}

const listSrc = `
struct n { struct n *next __affinity(80); int v; };

int walk(struct n *s) {
  int c;
  c = 0;
  while (s != NULL) {
    c = c + s->v;
    s = s->next;
  }
  return c;
}

int pick(struct n *s, int k) {
  if (k) {
    return s->v;
  } else {
    return 0;
  }
}
`

func TestBuildShape(t *testing.T) {
	g := Build(parseFn(t, listSrc, "walk"))
	if len(g.Preds(g.Entry())) != 0 {
		t.Errorf("entry has predecessors: %v", g.Preds(g.Entry()))
	}
	if len(g.Succs(g.Exit())) != 0 {
		t.Errorf("exit has successors: %v", g.Succs(g.Exit()))
	}
	// The while head must be a conditional block with a back edge.
	var head *Block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			if head != nil {
				t.Fatalf("expected one conditional block, found %d and %d", head.ID, b.ID)
			}
			head = b
		}
	}
	if head == nil {
		t.Fatal("no conditional block for the while loop")
	}
	tSucc, fSucc, ok := head.Branch()
	if !ok {
		t.Fatal("while head is not a two-way branch")
	}
	// The body (true successor) must eventually lead back to the head.
	back := false
	for _, p := range head.Preds() {
		if p.ID >= tSucc.ID {
			back = true
		}
	}
	if !back {
		t.Errorf("no back edge into while head %d (preds %v)", head.ID, g.Preds(head.ID))
	}
	if fSucc.ID == tSucc.ID {
		t.Errorf("true and false successors coincide: %d", fSucc.ID)
	}
}

func TestBuildIfElseJoins(t *testing.T) {
	g := Build(parseFn(t, listSrc, "pick"))
	var cond *Block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			cond = b
		}
	}
	if cond == nil {
		t.Fatal("no conditional block")
	}
	tb, fb, ok := cond.Branch()
	if !ok || tb == fb {
		t.Fatalf("bad branch: %v %v %v", tb, fb, ok)
	}
	// Both branches return, so the exit has (at least) those two return
	// blocks among its predecessors.
	if len(g.Preds(g.Exit())) < 2 {
		t.Errorf("exit preds = %v, want both return paths", g.Preds(g.Exit()))
	}
}

func TestBuildReturnLeavesLoop(t *testing.T) {
	prog, err := lang.Parse(`
struct n { struct n *next; };
void f(struct n *s) {
  while (s != NULL) {
    if (s->next == NULL) { return; }
    s = s->next;
  }
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	loop := prog.Funcs[0].Body.Stmts[0].(*lang.While)
	g := Build(prog.Funcs[0])
	seen := 0
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			switch s.(type) {
			case *lang.Return:
				seen++
				// The return goes to the exit, never back to the loop head.
				if succs := g.Succs(b.ID); len(succs) != 1 || succs[0] != g.Exit() {
					t.Errorf("return block %d has successors %v, want only exit %d", b.ID, succs, g.Exit())
				}
			case *lang.Assign:
				seen++
				// The fall-through path (s = s->next) takes the back edge.
				succs := b.Succs()
				if len(succs) != 1 || succs[0].Cond == nil || succs[0].CondPos != loop.Pos {
					t.Errorf("fall-through block %d has successors %v, want the while head", b.ID, g.Succs(b.ID))
				}
			}
		}
	}
	if seen != 2 {
		t.Fatalf("found %d of the return and the step statement, want 2", seen)
	}
	if !g.Reachable()[g.Exit()] {
		t.Error("exit unreachable")
	}
}

func TestReachableConstantBranches(t *testing.T) {
	fn := parseFn(t, `
struct n { struct n *next; };
int f(struct n *s) {
  int a;
  a = 1;
  if (0) { a = 2; }
  while (1) { a = a + 1; }
  return a;
}
`, "f")
	g := Build(fn)
	reach := g.Reachable()
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *lang.Assign:
				if rhs, ok := st.RHS.(*lang.IntLit); ok && rhs.V == 2 && reach[b.ID] {
					t.Errorf("if(0) body (block %d) should be unreachable", b.ID)
				}
			case *lang.Return:
				if reach[b.ID] {
					t.Errorf("code after while(1) (block %d) should be unreachable", b.ID)
				}
			}
		}
	}
}

func TestExprDerefsChains(t *testing.T) {
	prog, err := lang.Parse(`
struct n { struct n *next; int v; };
int f(struct n *s, struct n *q) {
  return g(s->next->v, q) + q->v;
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ret := prog.Funcs[0].Body.Stmts[0].(*lang.Return)
	ds := ExprDerefs(ret.E)
	if len(ds) != 2 || ds[0].Base != "s" || ds[1].Base != "q" {
		t.Fatalf("derefs = %v, want one maximal chain on s and one on q", ds)
	}
}

// randStmt generates a random structured statement tree over variables
// s (pointer) and a (int), exercising every construct the builder
// handles.
func randStmt(r *rand.Rand, depth int) lang.Stmt {
	if depth <= 0 {
		return &lang.Assign{LHS: &lang.Ident{Name: "a"}, RHS: &lang.IntLit{V: r.Int63n(10)}}
	}
	switch r.Intn(7) {
	case 0:
		n := r.Intn(3)
		b := &lang.Block{}
		for i := 0; i < n; i++ {
			b.Stmts = append(b.Stmts, randStmt(r, depth-1))
		}
		return b
	case 1:
		s := &lang.If{Cond: randCond(r), Then: randStmt(r, depth-1)}
		if r.Intn(2) == 0 {
			s.Else = randStmt(r, depth-1)
		}
		return s
	case 2:
		return &lang.While{Cond: randCond(r), Body: randStmt(r, depth-1)}
	case 3:
		return &lang.For{
			Init: &lang.Assign{LHS: &lang.Ident{Name: "a"}, RHS: &lang.IntLit{V: 0}},
			Cond: randCond(r),
			Post: &lang.Assign{LHS: &lang.Ident{Name: "a"}, RHS: &lang.IntLit{V: 1}},
			Body: randStmt(r, depth-1),
		}
	case 4:
		return &lang.Return{}
	case 5:
		return &lang.Assign{LHS: &lang.Ident{Name: "s"}, RHS: &lang.Arrow{X: &lang.Ident{Name: "s"}, Field: "next"}}
	default:
		return &lang.ExprStmt{E: &lang.Call{Name: "g", Args: []lang.Expr{&lang.Ident{Name: "a"}}}}
	}
}

func randCond(r *rand.Rand) lang.Expr {
	switch r.Intn(3) {
	case 0:
		return &lang.IntLit{V: r.Int63n(2)}
	case 1:
		return &lang.Ident{Name: "a"}
	default:
		return &lang.Binary{Op: "!=", L: &lang.Ident{Name: "s"}, R: &lang.Null{}}
	}
}

// TestRandomCFGInvariants checks structural invariants of the builder on
// randomized statement trees: adjacency symmetry, branch arity, and entry
// and exit degree.
func TestRandomCFGInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		fn := &lang.FuncDecl{
			Name:   "f",
			Params: []*lang.Param{{Name: "s", Type: lang.Type{Kind: lang.TypePtr, Struct: "n"}}},
			Body:   &lang.Block{Stmts: []lang.Stmt{randStmt(r, 4)}},
		}
		g := Build(fn)
		if len(g.Preds(g.Entry())) != 0 {
			t.Fatalf("trial %d: entry has preds", trial)
		}
		if len(g.Succs(g.Exit())) != 0 {
			t.Fatalf("trial %d: exit has succs", trial)
		}
		for i, b := range g.Blocks {
			if b.ID != i {
				t.Fatalf("trial %d: block %d has ID %d", trial, i, b.ID)
			}
			if b.Cond != nil && len(b.Succs()) != 2 {
				t.Fatalf("trial %d: conditional block %d has %d succs", trial, i, len(b.Succs()))
			}
			for _, s := range b.Succs() {
				if !containsBlock(s.Preds(), b) {
					t.Fatalf("trial %d: edge %d->%d not mirrored in preds", trial, b.ID, s.ID)
				}
			}
			for _, p := range b.Preds() {
				if !containsBlock(p.Succs(), b) {
					t.Fatalf("trial %d: pred edge %d->%d not mirrored in succs", trial, p.ID, b.ID)
				}
			}
		}
	}
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}
