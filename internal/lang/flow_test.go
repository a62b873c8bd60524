package lang

import (
	"math/rand"
	"strings"
	"testing"
)

// bitFlow is a gen/kill problem over the powerset of 16 elements, the
// canonical bounded lattice: each node's transfer is s&^kill | gen.
func bitFlow(gen, kill map[Node]uint16) Flow[uint16] {
	return Flow[uint16]{
		Join:  func(a, b uint16) uint16 { return a | b },
		Equal: func(a, b uint16) bool { return a == b },
		Step:  func(s uint16, n Node) uint16 { return s&^kill[n] | gen[n] },
	}
}

// visited folds f over fn's body and returns the state Visit saw at each
// node, failing on a node seen twice.
func visited(t *testing.T, body Stmt, f Flow[uint16], in uint16) (map[Node]uint16, uint16) {
	t.Helper()
	seen := map[Node]uint16{}
	f.Visit = func(n Node, s uint16) {
		if _, dup := seen[n]; dup {
			t.Fatalf("Visit saw %s twice", nodeLabel(n))
		}
		seen[n] = s
	}
	return seen, Fold(body, f, in)
}

// byLHS maps each assignment's target name to the assignment.
func byLHS(body Stmt) map[string]*Assign {
	out := map[string]*Assign{}
	Inspect(body, func(n Node) bool {
		if a, ok := n.(*Assign); ok {
			out[a.LHS.(*Ident).Name] = a
		}
		return true
	})
	return out
}

// TestForwardGenKill checks a reaching-definitions problem on a diamond
// inside a loop: each arm's definition kills the other's.
func TestForwardGenKill(t *testing.T) {
	body := parseBody(t, "void f(int c) {\n x = 0;\n while (c) {\n  if (c) { y = 1; } else { z = 1; }\n }\n w = 0;\n}")
	as := byLHS(body)
	gen := map[Node]uint16{as["x"]: 1 << 0, as["y"]: 1 << 2, as["z"]: 1 << 3}
	kill := map[Node]uint16{as["y"]: 1 << 3, as["z"]: 1 << 2}
	seen, out := visited(t, body, bitFlow(gen, kill), 0)
	// Bit 0 reaches everywhere; bits 2 and 3 both reach the exit (one from
	// each arm, neither killed on the loop's exit path).
	if want := uint16(1<<0 | 1<<2 | 1<<3); seen[as["w"]] != want || out != want {
		t.Errorf("before w = %b, exit = %b; want %b", seen[as["w"]], out, want)
	}
	// Around the back edge, each arm sees the other arm's definition.
	if want := uint16(1<<0 | 1<<2 | 1<<3); seen[as["y"]] != want {
		t.Errorf("before y = %b, want %b", seen[as["y"]], want)
	}
}

// TestReturnLeavesLoop checks that a return ends its path: what it
// generates reaches neither the loop head nor the code after the loop.
func TestReturnLeavesLoop(t *testing.T) {
	body := parseBody(t, "void f(struct n *s) {\n while (s != NULL) {\n  if (s->next == NULL) { x = 1; return; }\n  s = s->next;\n }\n y = 1;\n}")
	as := byLHS(body)
	gen := map[Node]uint16{as["x"]: 1, as["s"]: 2}
	seen, out := visited(t, body, bitFlow(gen, nil), 0)
	loop := body.Stmts[0].(*While)
	if seen[loop.Cond] != 2 || seen[as["y"]] != 2 || out != 2 {
		t.Errorf("head %b, after loop %b, exit %b; want the step's bit only", seen[loop.Cond], seen[as["y"]], out)
	}
	// Nothing follows a for(;;) loop.
	body = parseBody(t, "void f(int c) {\n for (;;) { x = 1; }\n y = 1;\n}")
	as = byLHS(body)
	if seen, _ := visited(t, body, bitFlow(map[Node]uint16{as["x"]: 1}, nil), 4); seen[as["y"]] != 0 {
		t.Errorf("after for(;;): %b, want bottom", seen[as["y"]])
	}
}

// refSolver is a reference for Fold on gen/kill problems with no shared
// structure: whole-tree passes in which each loop head joins its entry
// with its back edge from the previous pass, until no back edge moves.
type refSolver struct {
	gen, kill map[Node]uint16
	back      map[Stmt]uint16
	changed   bool
	seen      map[Node]uint16
}

func (r *refSolver) step(n Node, s uint16) uint16 {
	r.seen[n] = s
	return s&^r.kill[n] | r.gen[n]
}

func (r *refSolver) stmt(st Stmt, s uint16) uint16 {
	switch st := st.(type) {
	case nil:
		return s
	case *Block:
		for _, c := range st.Stmts {
			s = r.stmt(c, s)
		}
		return s
	case *If:
		s = r.step(st.Cond, s)
		return r.stmt(st.Then, s) | r.stmt(st.Else, s)
	case *While:
		return r.loop(st, st.Cond, st.Body, nil, s)
	case *For:
		return r.loop(st, st.Cond, st.Body, st.Post, r.stmt(st.Init, s))
	case *Return:
		r.step(st, s)
		return 0
	}
	return r.step(st, s)
}

func (r *refSolver) loop(l Stmt, cond Expr, body, post Stmt, s uint16) uint16 {
	var out uint16
	h := s | r.back[l]
	if cond != nil {
		h = r.step(cond, h)
		out = h
	}
	back := r.stmt(post, r.stmt(body, h))
	if back != r.back[l] {
		r.back[l], r.changed = back, true
	}
	return out
}

func (r *refSolver) solve(body Stmt, in uint16) uint16 {
	r.back = map[Stmt]uint16{}
	for {
		r.changed, r.seen = false, map[Node]uint16{}
		out := r.stmt(body, in)
		if !r.changed {
			return out
		}
	}
}

// randStmt generates a random structured statement tree over variables s
// (pointer) and a (int), exercising every construct Fold handles.
func randStmt(r *rand.Rand, depth int) Stmt {
	if depth <= 0 {
		return &Assign{LHS: &Ident{Name: "a"}, RHS: &IntLit{V: r.Int63n(10)}}
	}
	switch r.Intn(7) {
	case 0:
		b := &Block{}
		for i := r.Intn(3); i > 0; i-- {
			b.Stmts = append(b.Stmts, randStmt(r, depth-1))
		}
		return b
	case 1:
		s := &If{Cond: randCond(r), Then: randStmt(r, depth-1)}
		if r.Intn(2) == 0 {
			s.Else = randStmt(r, depth-1)
		}
		return s
	case 2:
		return &While{Cond: randCond(r), Body: randStmt(r, depth-1)}
	case 3:
		s := &For{Body: randStmt(r, depth-1)}
		if r.Intn(4) != 0 {
			s.Init = &Assign{LHS: &Ident{Name: "a"}, RHS: &IntLit{V: 0}}
			s.Cond = randCond(r)
			s.Post = &Assign{LHS: &Ident{Name: "a"}, RHS: &IntLit{V: 1}}
		}
		return s
	case 4:
		return &Return{}
	case 5:
		return &Assign{LHS: &Ident{Name: "s"}, RHS: &Arrow{X: &Ident{Name: "s"}, Field: "next"}}
	default:
		return &ExprStmt{E: &Call{Name: "g", Args: []Expr{&Ident{Name: "a"}}}}
	}
}

func randCond(r *rand.Rand) Expr {
	switch r.Intn(3) {
	case 0:
		return &IntLit{V: r.Int63n(2)}
	case 1:
		return &Ident{Name: "a"}
	default:
		return &Binary{Op: "!=", L: &Ident{Name: "s"}, R: &Null{}}
	}
}

// TestFlowFixpointQuick folds random gen/kill problems over random trees
// and requires Fold's answer — the state at every node and at the end —
// to equal the reference solver's.
func TestFlowFixpointQuick(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		body := &Block{Stmts: []Stmt{randStmt(r, 5), randStmt(r, 4)}}
		gen, kill := map[Node]uint16{}, map[Node]uint16{}
		Inspect(body, func(n Node) bool {
			gen[n], kill[n] = uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16))
			return true
		})
		in := uint16(r.Intn(1 << 16))
		seen, out := visited(t, body, bitFlow(gen, kill), in)
		ref := &refSolver{gen: gen, kill: kill}
		if want := ref.solve(body, in); out != want {
			t.Fatalf("seed %d: Fold returned %b, reference %b", seed, out, want)
		}
		if len(seen) != len(ref.seen) {
			t.Fatalf("seed %d: Fold visited %d nodes, reference %d", seed, len(seen), len(ref.seen))
		}
		for n, s := range ref.seen {
			if seen[n] != s {
				t.Fatalf("seed %d: at %T Fold saw %b, reference %b", seed, n, seen[n], s)
			}
		}
	}
}

// TestWarmStartBoundsNest folds a 20-deep loop nest whose innermost body
// needs four trips to settle. Restarting every head from scratch on each
// outer trip would fold that body 2^20 times; the warm start keeps it
// linear in the depth.
func TestWarmStartBoundsNest(t *testing.T) {
	const depth = 20
	var sb strings.Builder
	sb.WriteString("void f(int c) {\n")
	for i := 0; i < depth; i++ {
		sb.WriteString("while (c) {\n")
	}
	sb.WriteString("a = b; b = c2; c2 = d;\n")
	sb.WriteString(strings.Repeat("}\n", depth) + "}")
	body := parseBody(t, sb.String())
	bit := map[string]uint16{"a": 1, "b": 2, "c2": 4, "d": 8}
	var inner Node
	transfers := 0
	f := Flow[uint16]{
		Join:  func(a, b uint16) uint16 { return a | b },
		Equal: func(a, b uint16) bool { return a == b },
		Step: func(s uint16, n Node) uint16 {
			if n == inner {
				transfers++
			}
			if a, ok := n.(*Assign); ok && s&bit[a.RHS.(*Ident).Name] != 0 {
				return s | bit[a.LHS.(*Ident).Name] // taint flows along a = b
			}
			return s
		},
	}
	inner = byLHS(body)["a"]
	if out := Fold(body, f, bit["d"]); out != 15 {
		t.Fatalf("exit state %b, want every variable tainted", out)
	}
	if bound := 4 * depth; transfers > bound {
		t.Errorf("the innermost body was folded %d times, want at most %d", transfers, bound)
	}
}
