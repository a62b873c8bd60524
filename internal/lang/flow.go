package lang

// Flow is one dataflow problem over a function body, solved by Fold: a
// state type S with its join, and the transfers of the straight-line
// pieces. Fold supplies the control structure by the same structural
// recursion the §4.2 loop transfer uses (internal/core's seqStmt):
//
//   - an if's arms join after it;
//   - a loop's head state is iterated to its fixpoint, each trip joining
//     its back edge into the head, so the head only grows and a transfer
//     that is not monotone still terminates; on each iteration of an
//     enclosing loop the head restarts from the back-edge state of its
//     last fixpoint, so a nest d deep folds its innermost body O(d) times,
//     not 2^d;
//   - a return leaves Bottom on the path it ends and folding continues
//     after it: what follows is reached by nothing (backward, the path
//     into a return starts from the state Fold was given);
//   - a for loop without a condition has no exit: Bottom leaves it.
//
// Constant conditions are not pruned; a Flow that prunes them does so in
// Cond.
type Flow[S any] struct {
	// Backward folds against control flow, from the end of the body to
	// its start.
	Backward bool
	// Bottom is the state of a path that does not exist.
	Bottom S
	Join   func(a, b S) S
	Equal  func(a, b S) bool
	// Step transfers a state across one straight-line statement (a
	// VarDecl, Assign, ExprStmt or Return) or across the evaluation of a
	// branch condition, which it receives as the Expr. Step and Cond must
	// not modify s: states are shared.
	Step func(s S, n Node) S
	// Cond, when non-nil, refines the state leaving condition e along its
	// true (taken) or false edge.
	Cond func(s S, e Expr, taken bool) S
	// Visit, when non-nil, sees every node Step does exactly once, with
	// the fixpoint state flowing into Step there (before the node for a
	// forward flow, after it for a backward one). Clients report here.
	Visit func(n Node, s S)
}

// Fold solves f over body from state in, which holds at the start of body
// for a forward flow and at its end for a backward one, and returns the
// state at the other end.
func Fold[S any](body Stmt, f Flow[S], in S) S {
	fd := &folder[S]{Flow: f, end: in, back: map[Stmt]S{}, final: true}
	return fd.stmt(body, in)
}

type folder[S any] struct {
	Flow[S]
	end   S          // backward: the state after every return
	back  map[Stmt]S // each loop's back-edge state at its last fixpoint
	final bool       // every enclosing loop is at its fixpoint: Visit may see
}

func (fd *folder[S]) node(n Node, s S) S {
	if fd.final && fd.Visit != nil {
		fd.Visit(n, s)
	}
	return fd.Step(s, n)
}

func (fd *folder[S]) cond(s S, e Expr, taken bool) S {
	if fd.Cond == nil {
		return s
	}
	return fd.Cond(s, e, taken)
}

// stmt folds st from state s and returns the state on its far side.
func (fd *folder[S]) stmt(st Stmt, s S) S {
	switch st := st.(type) {
	case nil:
		return s
	case *Block:
		for i := range st.Stmts {
			if fd.Backward {
				i = len(st.Stmts) - 1 - i
			}
			s = fd.stmt(st.Stmts[i], s)
		}
		return s
	case *If:
		if fd.Backward {
			t := fd.cond(fd.stmt(st.Then, s), st.Cond, true)
			e := fd.cond(fd.stmt(st.Else, s), st.Cond, false)
			return fd.node(st.Cond, fd.Join(t, e))
		}
		s = fd.node(st.Cond, s)
		t := fd.stmt(st.Then, fd.cond(s, st.Cond, true))
		return fd.Join(t, fd.stmt(st.Else, fd.cond(s, st.Cond, false)))
	case *While:
		return fd.loop(st, st.Cond, st.Body, nil, s)
	case *For:
		if fd.Backward {
			return fd.stmt(st.Init, fd.loop(st, st.Cond, st.Body, st.Post, s))
		}
		return fd.loop(st, st.Cond, st.Body, st.Post, fd.stmt(st.Init, s))
	case *Return:
		if fd.Backward {
			return fd.node(st, fd.end)
		}
		fd.node(st, s)
		return fd.Bottom
	}
	return fd.node(st, s)
}

// loop folds loop l (condition cond, nil for for(;;)) from state s: it
// iterates the head state to its fixpoint with Visit off, then, when the
// enclosing loops are at theirs, folds one more trip for Visit.
func (fd *folder[S]) loop(l Stmt, cond Expr, body, post Stmt, s S) S {
	entry := s
	if fd.Backward {
		entry = fd.Bottom
		if cond != nil {
			entry = fd.cond(s, cond, false)
		}
	}
	head := entry
	if b, ok := fd.back[l]; ok {
		head = fd.Join(entry, b)
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

// trip folds one trip around a loop from head state h and returns the
// state on the back edge into the head and the state leaving the loop.
// Forward, h holds before the condition and the trip runs cond, body,
// post; backward, h holds after the condition and the trip runs post,
// body.
func (fd *folder[S]) trip(cond Expr, body, post Stmt, h S) (back, out S) {
	if fd.Backward {
		out = h
		if cond != nil {
			out = fd.node(cond, h)
		}
		back = fd.stmt(body, fd.stmt(post, out))
		if cond != nil {
			back = fd.cond(back, cond, true)
		}
		return back, out
	}
	out = fd.Bottom
	if cond != nil {
		h = fd.node(cond, h)
		out = fd.cond(h, cond, false)
		h = fd.cond(h, cond, true)
	}
	return fd.stmt(post, fd.stmt(body, h)), out
}
