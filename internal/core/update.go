package core

import (
	"repro/internal/lang"
)

// Matrix is an update matrix (§4.2): Matrix[s][t] is the path affinity of
// the update of variable s by variable t — present when s's value at the
// end of a loop iteration equals t's value from the beginning of the
// iteration dereferenced through a field path. Entries on the diagonal
// identify induction variables.
type Matrix map[string]map[string]float64

// set records an entry.
func (m Matrix) set(s, t string, aff float64) {
	row := m[s]
	if row == nil {
		row = map[string]float64{}
		m[s] = row
	}
	row[t] = aff
}

// Get returns an entry and whether it is present.
func (m Matrix) Get(s, t string) (float64, bool) {
	aff, ok := m[s][t]
	return aff, ok
}

// Diagonal returns the affinity of s's self-update, if any: s is an
// induction variable exactly when this is present.
func (m Matrix) Diagonal(s string) (float64, bool) { return m.Get(s, s) }

// typeEnv maps pointer variables to the struct they point to
// (lang.PtrVars builds it).
type typeEnv map[string]string

// exprStruct resolves the pointed-to struct of a pointer expression, or ""
// when unknown.
func exprStruct(prog *lang.Program, te typeEnv, e lang.Expr) string {
	switch e := e.(type) {
	case *lang.Ident:
		return te[e.Name]
	case *lang.Arrow:
		st := exprStruct(prog, te, e.X)
		if st == "" {
			return ""
		}
		sd := prog.Struct(st)
		if sd == nil {
			return ""
		}
		fd := sd.Field(e.Field)
		if fd == nil || !fd.Type.IsPtr() {
			return ""
		}
		return fd.Type.Struct
	}
	return ""
}

// symval is the symbolic value of a pointer variable at a program point,
// relative to variable values at the head of the current iteration: either
// unknown, or "base dereferenced through a path with affinity aff" (ident
// marks the empty path, i.e. the variable is unchanged).
type symval struct {
	known bool
	base  string
	aff   float64
	ident bool
}

var unknownVal = symval{}

// env maps pointer variables to their symbolic values.
type env map[string]symval

func identityEnv(te typeEnv) env {
	e := env{}
	for v := range te {
		e[v] = symval{known: true, base: v, aff: 1, ident: true}
	}
	return e
}

func (e env) clone() env {
	c := make(env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// join merges the environments of two branches per the paper's rule:
// matching updates average their affinities; an update absent from one
// branch is omitted (only updates occurring on every iteration count).
func join(a, b env) env {
	out := env{}
	for v, va := range a {
		vb, ok := b[v]
		if !ok || !va.known || !vb.known || va.base != vb.base {
			out[v] = unknownVal
			continue
		}
		switch {
		case va.ident && vb.ident:
			out[v] = va
		case va.ident != vb.ident:
			// A real update in one branch, none in the other:
			// the update does not occur every iteration — omit.
			out[v] = unknownVal
		default:
			out[v] = symval{known: true, base: va.base, aff: avgCombine(va.aff, vb.aff)}
		}
	}
	for v := range b {
		if _, ok := a[v]; !ok {
			out[v] = unknownVal
		}
	}
	return out
}

// analysis carries the per-function analysis context.
type analysis struct {
	prog   *lang.Program
	fn     *lang.FuncDecl
	te     typeEnv
	params Params
}

// evalExpr computes the symbolic value of a pointer expression.
func (a *analysis) evalExpr(ev env, e lang.Expr) symval {
	switch e := e.(type) {
	case *lang.Ident:
		if v, ok := ev[e.Name]; ok {
			return v
		}
	case *lang.Arrow:
		v := a.evalExpr(ev, e.X)
		if !v.known {
			return unknownVal
		}
		st := exprStruct(a.prog, a.te, e.X)
		if st == "" {
			return unknownVal
		}
		aff := v.aff * fieldAffinity(a.prog, st, e.Field, a.params)
		return symval{known: true, base: v.base, aff: aff}
	}
	// Calls, literals, arithmetic: no value tracked (the paper's
	// preliminary implementation does not consider return values at all).
	return unknownVal
}

// killAssigned marks every variable assigned anywhere inside s as unknown
// (used for nested loops, which an enclosing control loop treats as one
// opaque statement).
func killAssigned(ev env, s lang.Stmt) {
	for _, v := range lang.StmtDefs(s) {
		ev[v] = unknownVal
	}
}

// transferStmt applies one statement's effect to the symbolic environment
// in place. A nested syntactic loop is one opaque statement that kills its
// assignments; returns and expression statements change no local values.
func (a *analysis) transferStmt(ev env, s lang.Stmt) {
	switch s := s.(type) {
	case *lang.VarDecl:
		if s.Type.IsPtr() {
			if s.Init != nil {
				ev[s.Name] = a.evalExpr(ev, s.Init)
			} else {
				ev[s.Name] = unknownVal
			}
		}
	case *lang.Assign:
		if id, ok := s.LHS.(*lang.Ident); ok {
			if _, isPtr := a.te[id.Name]; isPtr {
				ev[id.Name] = a.evalExpr(ev, s.RHS)
			}
		}
		// Heap stores (p->f = …) do not change local variables.
	case *lang.While, *lang.For:
		killAssigned(ev, s)
	}
}

// loopMatrix computes the update matrix of a syntactic loop (§4.2) by
// threading the identity environment through one iteration: the body with
// seqStmt, then the for-post statement (nil for while loops). Whatever
// non-identity derivations reach the end — the head of the next iteration —
// become matrix entries. When every path returns, no next iteration
// follows and nothing is recorded.
func (a *analysis) loopMatrix(body lang.Stmt, post lang.Stmt) Matrix {
	m := Matrix{}
	ev, term := a.seqStmt(identityEnv(a.te), body)
	if term {
		return m
	}
	if post != nil {
		a.transferStmt(ev, post)
	}
	for v, val := range ev {
		if val.known && !val.ident {
			m.set(v, val.base, val.aff)
		}
	}
	return m
}

// seqStmt threads the symbolic environment through one statement: branch
// environments merge with joinArms and nested loops kill their assignments.
// The bool reports that every path through s returns.
func (a *analysis) seqStmt(ev env, s lang.Stmt) (env, bool) {
	switch s := s.(type) {
	case *lang.Block:
		term := false
		for _, st := range s.Stmts {
			if term {
				break // unreachable
			}
			ev, term = a.seqStmt(ev, st)
		}
		return ev, term
	case *lang.If:
		e1, t1 := a.seqStmt(ev.clone(), s.Then)
		e2, t2 := ev, false
		if s.Else != nil {
			e2, t2 = a.seqStmt(ev.clone(), s.Else)
		}
		return joinArms(e1, t1, e2, t2)
	case *lang.Return:
		return ev, true
	}
	a.transferStmt(ev, s)
	return ev, false
}

// joinArms merges the environments of an if's two arms (t1, t2: the arm
// returns). A returning arm drops out of the merge — its values never reach
// the code after the if — and does not veto the other arm's updates; two
// falling-through arms join.
func joinArms(e1 env, t1 bool, e2 env, t2 bool) (env, bool) {
	switch {
	case t1 && t2:
		return e1, true
	case t1:
		return e2, false
	case t2:
		return e1, false
	}
	return join(e1, e2), false
}

// recUpd accumulates the update of one parameter across the recursive
// calls of one path; bad marks conflicting bases.
type recUpd struct {
	base string
	aff  float64
	bad  bool
}

type recUpds map[string]recUpd

// seqCombine merges updates from two statement sequences that both execute
// (multiple recursive calls in one iteration): 1−∏(1−aᵢ).
func seqCombine(a, b recUpds) recUpds {
	out := recUpds{}
	for p, u := range a {
		out[p] = u
	}
	for p, ub := range b {
		if ua, ok := out[p]; ok {
			if ua.bad || ub.bad || ua.base != ub.base {
				out[p] = recUpd{bad: true}
			} else {
				out[p] = recUpd{base: ua.base, aff: orCombine(ua.aff, ub.aff)}
			}
		} else {
			out[p] = ub
		}
	}
	return out
}

// branchCombine merges updates from two alternative branches that both
// recurse: averaging, per the join rule; a parameter updated in only one
// recursing branch is omitted.
func branchCombine(a, b recUpds) recUpds {
	out := recUpds{}
	for p, ua := range a {
		ub, ok := b[p]
		if !ok {
			continue
		}
		if ua.bad || ub.bad || ua.base != ub.base {
			out[p] = recUpd{bad: true}
			continue
		}
		out[p] = recUpd{base: ua.base, aff: avgCombine(ua.aff, ub.aff)}
	}
	return out
}

// recCalls is seqStmt that also collects, along the way, the combined
// updates of the function's parameters at recursive call sites. Calls
// inside nested syntactic loops are ignored (their per-iteration updates
// are not loop-invariant). The environment merges at an if exactly as in
// seqStmt (joinArms); the call updates merge per branch (branchCombine
// averages only across branches that both recurse), which needs each
// branch's delta rather than the whole path's environment.
func (a *analysis) recCalls(ev env, s lang.Stmt) (env, recUpds, bool) {
	switch s := s.(type) {
	case *lang.Block:
		ups := recUpds{}
		term := false
		for _, st := range s.Stmts {
			if term {
				break
			}
			var u recUpds
			ev, u, term = a.recCalls(ev, st)
			ups = seqCombine(ups, u)
		}
		return ev, ups, term
	case *lang.If:
		e1, u1, t1 := a.recCalls(ev.clone(), s.Then)
		e2, u2, t2 := ev, recUpds{}, false
		if s.Else != nil {
			e2, u2, t2 = a.recCalls(ev.clone(), s.Else)
		}
		outEnv, term := joinArms(e1, t1, e2, t2)
		// The merging rule applies only across branches that both
		// recurse; a base case contributes nothing and does not veto
		// the other branch (Figure 4's control loop "does not include
		// the join", as the calls occur before the end of the else
		// branch).
		var ups recUpds
		switch {
		case len(u1) > 0 && len(u2) > 0:
			ups = branchCombine(u1, u2)
		case len(u1) > 0:
			ups = u1
		default:
			ups = u2
		}
		return outEnv, ups, term
	case *lang.While, *lang.For:
		killAssigned(ev, s)
		return ev, recUpds{}, false
	case *lang.Return:
		_, ups := a.callUpdates(ev, s.E)
		return ev, ups, true
	case *lang.ExprStmt:
		_, ups := a.callUpdates(ev, s.E)
		return ev, ups, false
	case *lang.VarDecl:
		var ups recUpds
		if s.Init != nil {
			_, ups = a.callUpdates(ev, s.Init)
		}
		a.transferStmt(ev, s)
		return ev, ups, false
	case *lang.Assign:
		_, ups := a.callUpdates(ev, s.RHS)
		_, target := a.callUpdates(ev, s.LHS) // f(t->left)->val = …
		a.transferStmt(ev, s)
		return ev, seqCombine(ups, target), false
	}
	return ev, recUpds{}, false
}

// callUpdates extracts recursive-call updates from an expression (calls can
// be nested inside arithmetic, e.g. TreeAdd(t->left)+TreeAdd(t->right)).
// Sibling calls in one expression all execute, so they sequence-combine.
func (a *analysis) callUpdates(ev env, e lang.Expr) (env, recUpds) {
	ups := recUpds{}
	var walk func(e lang.Expr)
	walk = func(e lang.Expr) {
		switch e := e.(type) {
		case *lang.Call:
			for _, arg := range e.Args {
				walk(arg)
			}
			if e.Name != a.fn.Name {
				return
			}
			u := recUpds{}
			for i, p := range a.fn.Params {
				if !p.Type.IsPtr() || i >= len(e.Args) {
					continue
				}
				v := a.evalExpr(ev, e.Args[i])
				if v.known && !v.ident {
					u[p.Name] = recUpd{base: v.base, aff: v.aff}
				}
			}
			ups = seqCombine(ups, u)
		case *lang.Arrow:
			walk(e.X)
		case *lang.Binary:
			walk(e.L)
			walk(e.R)
		case *lang.Unary:
			walk(e.X)
		case *lang.Touch:
			walk(e.E)
		}
	}
	if e != nil {
		walk(e)
	}
	return ev, ups
}

// recursionMatrix computes the update matrix of a function's recursion
// control loop: parameters updated by the values passed at recursive call
// sites.
func (a *analysis) recursionMatrix() Matrix {
	ev := identityEnv(a.te)
	_, ups, _ := a.recCalls(ev, a.fn.Body)
	m := Matrix{}
	for p, u := range ups {
		if !u.bad {
			m.set(p, u.base, u.aff)
		}
	}
	return m
}
