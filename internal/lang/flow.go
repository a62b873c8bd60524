package lang

// Flow is one forward dataflow problem over a function body, solved by
// Fold: a state type S with its join, and the transfers of the
// straight-line pieces. Fold supplies the control structure by the same
// structural recursion the §4.2 loop transfer uses (internal/core's
// seqStmt):
//
//   - an if's arms join after it;
//   - a loop's head state is iterated to its fixpoint, each trip joining
//     its back edge into the head, so the head only grows and a transfer
//     that is not monotone still terminates; on each iteration of an
//     enclosing loop the head restarts from the back-edge state of its
//     last fixpoint, so a nest d deep folds its innermost body O(d) times,
//     not 2^d;
//   - a return leaves Bottom on the path it ends and folding continues
//     after it: what follows is reached by nothing;
//   - a for loop without a condition has no exit: Bottom leaves it.
//
// Constant conditions are not pruned.
type Flow[S any] struct {
	// Bottom is the state of a path that does not exist.
	Bottom S
	Join   func(a, b S) S
	Equal  func(a, b S) bool
	// Step transfers a state across one straight-line statement (a
	// VarDecl, Assign, ExprStmt or Return) or across the evaluation of a
	// branch condition, which it receives as the Expr. Step must not
	// modify s: states are shared.
	Step func(s S, n Node) S
	// Visit, when non-nil, sees every node Step does exactly once, with
	// the fixpoint state flowing into Step there. Clients report here.
	Visit func(n Node, s S)
}

// Fold solves f over body from state in, which holds at the start of
// body, and returns the state at its end.
func Fold[S any](body Stmt, f Flow[S], in S) S {
	fd := &folder[S]{Flow: f, back: map[Stmt]S{}, final: true}
	return fd.stmt(body, in)
}

type folder[S any] struct {
	Flow[S]
	back  map[Stmt]S // each loop's back-edge state at its last fixpoint
	final bool       // every enclosing loop is at its fixpoint: Visit may see
}

func (fd *folder[S]) node(n Node, s S) S {
	if fd.final && fd.Visit != nil {
		fd.Visit(n, s)
	}
	return fd.Step(s, n)
}

// stmt folds st from state s and returns the state on its far side.
func (fd *folder[S]) stmt(st Stmt, s S) S {
	switch st := st.(type) {
	case nil:
		return s
	case *Block:
		for _, c := range st.Stmts {
			s = fd.stmt(c, s)
		}
		return s
	case *If:
		s = fd.node(st.Cond, s)
		return fd.Join(fd.stmt(st.Then, s), fd.stmt(st.Else, s))
	case *While:
		return fd.loop(st, st.Cond, st.Body, nil, s)
	case *For:
		return fd.loop(st, st.Cond, st.Body, st.Post, fd.stmt(st.Init, s))
	case *Return:
		fd.node(st, s)
		return fd.Bottom
	}
	return fd.node(st, s)
}

// loop folds loop l (condition cond, nil for for(;;)) from state s: it
// iterates the head state to its fixpoint with Visit off, then, when the
// enclosing loops are at theirs, folds one more trip for Visit.
func (fd *folder[S]) loop(l Stmt, cond Expr, body, post Stmt, s S) S {
	head := s
	if b, ok := fd.back[l]; ok {
		head = fd.Join(s, b)
	}
	final := fd.final
	fd.final = false
	var out S
	for {
		var b S
		b, out = fd.trip(cond, body, post, head)
		fd.back[l] = b
		next := fd.Join(head, b)
		if fd.Equal(next, head) {
			break
		}
		head = next
	}
	if fd.final = final; final {
		fd.trip(cond, body, post, head)
	}
	return out
}

// trip folds one trip around a loop from head state h, which holds before
// the condition, through cond, body and post, and returns the state on the
// back edge into the head and the state leaving the loop.
func (fd *folder[S]) trip(cond Expr, body, post Stmt, h S) (back, out S) {
	out = fd.Bottom
	if cond != nil {
		h = fd.node(cond, h)
		out = h
	}
	return fd.stmt(post, fd.stmt(body, h)), out
}
