package effects

import (
	"repro/internal/core"
	"repro/internal/lang"
)

// This file computes the two facts about a function's cost that something
// reads: Summary.Returns (phases.Compute refuses a plan over a function
// that may not return — no later phase boundary is guaranteed to be
// reached) and Summary.Allocs (a phase footprint says whether the phase can
// allocate). Neither is a number: a loop either makes progress toward its
// exit on every path or it does not, and an alloc call is either reachable
// or it is not.

// termination derives the function's two cost bits from its body, assuming
// every callee outside the SCC already carries final ones (the SCC driver
// runs callee-first). Extern calls and mutual recursion are not analyzed:
// both bits go conservative.
func (fa *fnAnalysis) termination(sum *Summary) {
	if len(sum.Extern) > 0 || sum.Mutual {
		sum.Returns, sum.Allocs = false, true
		return
	}
	sum.Returns, sum.Allocs = fa.stmtBits(fa.fn.Body)
	if sum.Recursive && !fa.structuralRecursion() {
		sum.Returns = false
	}
}

// assignedIn collects every variable a subtree may assign or declare
// (the subset has one flat namespace per function).
func assignedIn(s lang.Stmt) map[string]bool {
	out := map[string]bool{}
	for _, v := range lang.StmtDefs(s) {
		out[v] = true
	}
	return out
}

// structuralRecursion reports whether the function's self-recursion
// descends a finite acyclic structure: some pointer parameter is rebound to
// one of its own fields at every recursive call, which is exactly a diagonal
// entry in the §4.2 recursion-loop update matrix. Any other recursion may
// not return.
func (fa *fnAnalysis) structuralRecursion() bool {
	for _, l := range fa.res.Report.FuncLoops(fa.fn.Name) {
		if l.Kind != core.RecursionLoop {
			continue
		}
		for _, p := range fa.fn.Params {
			if !p.Type.IsPtr() {
				continue
			}
			if _, ok := l.Matrix.Diagonal(p.Name); ok {
				return true
			}
		}
	}
	return false
}

// stmtBits folds one statement subtree (nil included), one invocation
// deep: whether every execution of it finishes, and whether it can reach an
// alloc. Calls fold in their callee's bits.
func (fa *fnAnalysis) stmtBits(s lang.Stmt) (returns, allocs bool) {
	returns = true
	fold := func(r, a bool) {
		returns = returns && r
		allocs = allocs || a
	}
	switch s := s.(type) {
	case *lang.Block:
		for _, st := range s.Stmts {
			fold(fa.stmtBits(st))
		}
	case *lang.VarDecl:
		fold(fa.exprBits(s.Init))
	case *lang.Assign:
		fold(fa.exprBits(s.RHS))
	case *lang.If:
		fold(fa.exprBits(s.Cond))
		fold(fa.stmtBits(s.Then))
		fold(fa.stmtBits(s.Else))
	case *lang.While:
		fold(fa.loopBits(s.Cond, s.Body, nil))
	case *lang.For:
		fold(fa.stmtBits(s.Init))
		fold(fa.loopBits(s.Cond, s.Body, s.Post))
	case *lang.Return:
		fold(fa.exprBits(s.E))
	case *lang.ExprStmt:
		fold(fa.exprBits(s.E))
	}
	return returns, allocs
}

// loopBits folds one loop: it finishes when every iteration does and it is
// guaranteed to leave through its condition.
//
//   - A constant-false condition contributes nothing: the body never runs.
//   - No condition, while(1) and other constant-true conditions never
//     exit (any exit is a return, which leaves the function, not just the
//     loop).
//   - Pointer chase: the condition tests a pointer v and EVERY path
//     through one iteration rebinds v through one of its own fields
//     (v = v->next): the loop walks a finite structure.
//   - Numeric induction: the condition compares a variable against a
//     loop-invariant limit and every path through the body/post moves it
//     by a nonzero net constant toward that limit.
//   - Anything else may not exit. Progress on merely some path proves
//     nothing — a conditionally advancing loop can spin forever.
func (fa *fnAnalysis) loopBits(cond lang.Expr, body, post lang.Stmt) (returns, allocs bool) {
	if v, ok := lang.ConstCond(cond); ok && !v {
		return true, false
	}
	exits := fa.pointerChase(cond, body, post) || fa.induction(cond, body, post)
	cr, ca := fa.exprBits(cond)
	br, ba := fa.stmtBits(body)
	pr, pa := fa.stmtBits(post)
	return exits && cr && br && pr, ca || ba || pa
}

// exprBits folds an expression (nil included): only its calls matter. A
// call into the current SCC is the recursion itself, which
// structuralRecursion judges for the whole body.
func (fa *fnAnalysis) exprBits(e lang.Expr) (returns, allocs bool) {
	returns = true
	for _, call := range callsInExpr(e) {
		switch {
		case fa.res.Prog.Func(call.Name) == nil && call.Name == AllocName:
			allocs = true
		case fa.res.Prog.Func(call.Name) == nil:
			return false, true
		case fa.inSCC[call.Name]:
		default:
			sum := fa.res.byName[call.Name]
			returns, allocs = returns && sum.Returns, allocs || sum.Allocs
		}
	}
	return returns, allocs
}

// pointerChase recognizes v-tests-and-advances loops: cond reads pointer
// v, every path through body∪post advances v along its own chain, and no
// path rebinds v to anything else.
func (fa *fnAnalysis) pointerChase(cond lang.Expr, body lang.Stmt, post lang.Stmt) bool {
	for _, u := range lang.Reads(cond) {
		st, isPtr := fa.te[u.Name]
		if !isPtr || st == "" {
			continue
		}
		b, p := advanceOf(u.Name, body), advanceOf(u.Name, post)
		if b == advBroken || p == advBroken {
			continue
		}
		if b == advAlways || p == advAlways {
			return true
		}
	}
	return false
}

// advResult classifies what a subtree does to a chased pointer v.
type advResult int

const (
	// advNone: no path is guaranteed to advance v, but none rebinds it
	// off its own chain either (includes "v untouched").
	advNone advResult = iota
	// advAlways: every path through the subtree executes
	// v = <Arrow chain rooted at v> (possibly through a touch).
	advAlways
	// advBroken: some path may rebind v to something that is not a chain
	// rooted at v — no progress argument survives.
	advBroken
)

// advanceOf computes the advance classification of v over a subtree. The
// canonical list-walk step v = v->next is an advance; assignments under a
// branch only count when both arms advance; assignments inside nested
// loops never count as guaranteed (the loop may run zero times) but are
// harmless if they, too, only advance v along its own chain.
func advanceOf(v string, s lang.Stmt) advResult {
	if s == nil {
		return advNone
	}
	switch s := s.(type) {
	case *lang.Block:
		r := advNone
		for _, st := range s.Stmts {
			switch advanceOf(v, st) {
			case advBroken:
				return advBroken
			case advAlways:
				r = advAlways
			}
		}
		return r
	case *lang.VarDecl:
		if s.Name == v {
			return advBroken
		}
		return advNone
	case *lang.Assign:
		id, ok := s.LHS.(*lang.Ident)
		if !ok || id.Name != v {
			return advNone
		}
		rhs := s.RHS
		if t, ok := rhs.(*lang.Touch); ok {
			rhs = t.E
		}
		if a, ok := rhs.(*lang.Arrow); ok {
			if base, ok := lang.ChainBase(a); ok && base == v {
				return advAlways
			}
		}
		return advBroken
	case *lang.If:
		t := advanceOf(v, s.Then)
		e := advNone
		if s.Else != nil {
			e = advanceOf(v, s.Else)
		}
		if t == advBroken || e == advBroken {
			return advBroken
		}
		if t == advAlways && e == advAlways {
			return advAlways
		}
		return advNone
	case *lang.While:
		if advanceOf(v, s.Body) == advBroken {
			return advBroken
		}
		return advNone
	case *lang.For:
		for _, p := range []lang.Stmt{s.Init, s.Body, s.Post} {
			if p != nil && advanceOf(v, p) == advBroken {
				return advBroken
			}
		}
		return advNone
	}
	return advNone
}

// induction recognizes counted loops: cond is v < limit (or <=, >, >=)
// with limit a literal or a variable the loop never assigns, and every
// path through body∪post changes v by a net constant moving toward the
// limit. Where v starts is irrelevant: it bounds the count, not whether the
// loop ends.
func (fa *fnAnalysis) induction(cond lang.Expr, body lang.Stmt, post lang.Stmt) bool {
	b, ok := cond.(*lang.Binary)
	if !ok {
		return false
	}
	v, limit, op := "", lang.Expr(nil), b.Op
	if id, ok := b.L.(*lang.Ident); ok {
		v, limit = id.Name, b.R
	} else if id, ok := b.R.(*lang.Ident); ok {
		// limit OP v: flip the comparison.
		v, limit = id.Name, b.L
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	} else {
		return false
	}
	if _, isPtr := fa.te[v]; isPtr {
		return false
	}
	switch limit := limit.(type) {
	case *lang.IntLit:
	case *lang.Ident:
		// A limit the loop moves can outrun the counter for good.
		if _, isPtr := fa.te[limit.Name]; isPtr || assignedIn(body)[limit.Name] || assignedIn(post)[limit.Name] {
			return false
		}
	default:
		return false
	}
	bl, bh, ok := stepInterval(v, body)
	if !ok {
		return false
	}
	pl, ph, ok := stepInterval(v, post)
	if !ok {
		return false
	}
	lo, okLo := addOvf(bl, pl)
	hi, okHi := addOvf(bh, ph)
	if !okLo || !okHi {
		return false
	}
	// Every path must move strictly toward the limit's far side.
	switch op {
	case "<", "<=":
		return lo > 0
	case ">", ">=":
		return hi < 0
	}
	return false
}

// stepInterval bounds the net change one execution of the subtree applies
// to v as a [lo, hi] interval. ok is false when the subtree may assign v
// in any form other than v = v ± <literal> — or steps it inside a nested
// loop, whose iteration count is unknown here — since no per-iteration
// progress guarantee survives such an assignment.
func stepInterval(v string, s lang.Stmt) (lo, hi int64, ok bool) {
	if s == nil {
		return 0, 0, true
	}
	switch s := s.(type) {
	case *lang.Block:
		for _, st := range s.Stmts {
			l, h, o := stepInterval(v, st)
			if !o {
				return 0, 0, false
			}
			if lo, o = addOvf(lo, l); !o {
				return 0, 0, false
			}
			if hi, o = addOvf(hi, h); !o {
				return 0, 0, false
			}
		}
		return lo, hi, true
	case *lang.VarDecl:
		if s.Name == v {
			return 0, 0, false
		}
		return 0, 0, true
	case *lang.Assign:
		id, isIdent := s.LHS.(*lang.Ident)
		if !isIdent || id.Name != v {
			return 0, 0, true
		}
		b, isBin := s.RHS.(*lang.Binary)
		if !isBin || (b.Op != "+" && b.Op != "-") {
			return 0, 0, false
		}
		base, bok := b.L.(*lang.Ident)
		k, kok := b.R.(*lang.IntLit)
		if !bok || !kok || base.Name != v {
			return 0, 0, false
		}
		step := k.V
		if b.Op == "-" {
			step = -step
		}
		return step, step, true
	case *lang.If:
		tl, th, o := stepInterval(v, s.Then)
		if !o {
			return 0, 0, false
		}
		el, eh := int64(0), int64(0)
		if s.Else != nil {
			if el, eh, o = stepInterval(v, s.Else); !o {
				return 0, 0, false
			}
		}
		return min(tl, el), max(th, eh), true
	case *lang.While, *lang.For:
		if assignedIn(s)[v] {
			return 0, 0, false
		}
		return 0, 0, true
	}
	return 0, 0, true
}

// addOvf is overflow-checked int64 addition.
func addOvf(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < a) || (a < 0 && b < 0 && s > a) {
		return 0, false
	}
	return s, true
}
