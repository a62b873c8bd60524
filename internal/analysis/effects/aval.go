package effects

import (
	"repro/internal/core"
	"repro/internal/lang"
)

// aval is the abstract value of a pointer variable: the set of abstract
// locations it may point into. The lattice is a powerset — join is
// field-wise or — with top as the explicit everything element.
//
//   - params: bitmask of the function's parameters whose referent the
//     pointer may alias (bit i for parameter i).
//   - fresh: may point at an object allocated during this call that has
//     not been loaded back from the heap. A fresh-only pointer aliases
//     nothing the caller can see, so stores through it are invisible
//     effects — the rule that keeps build-style initialization pure.
//   - heap: may point at an arbitrary pre-existing heap object (loaded
//     via a field, or returned heap-tainted by a callee).
//   - null: may be NULL.
//   - top: unknown (extern call results, use-before-init reads).
type aval struct {
	top    bool
	null   bool
	fresh  bool
	heap   bool
	params uint64
}

func (a aval) join(b aval) aval {
	return aval{
		top:    a.top || b.top,
		null:   a.null || b.null,
		fresh:  a.fresh || b.fresh,
		heap:   a.heap || b.heap,
		params: a.params | b.params,
	}
}

// freshOnly reports whether the pointer can only reference objects
// allocated during this call (or be NULL): writes through it are not
// caller-visible effects.
func (a aval) freshOnly() bool {
	return !a.top && !a.heap && a.params == 0
}

// env is the per-program-point alias environment: one aval per pointer
// variable. nil is the unreachable bottom; a non-nil map, even an empty
// one, is a reachable environment, and an absent key is aval{}.
type env = map[string]aval

// joinEnv merges two environments key-wise without mutating either.
func joinEnv(a, b env) env {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(env, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, bv := range b {
		out[k] = out[k].join(bv)
	}
	return out
}

// equalEnv compares two environments, treating absent keys as aval{}.
func equalEnv(a, b env) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for k, av := range a {
		if b[k] != av {
			return false
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok && bv != (aval{}) {
			return false
		}
	}
	return true
}

// fnAnalysis analyzes one function against the current summary table.
type fnAnalysis struct {
	res   *Result
	fn    *lang.FuncDecl
	te    typeEnv
	inSCC map[string]bool
}

func newFnAnalysis(res *Result, fn *lang.FuncDecl, inSCC map[string]bool) *fnAnalysis {
	return &fnAnalysis{res: res, fn: fn, te: lang.PtrVars(fn), inSCC: inSCC}
}

// applyStmt updates the alias environment across one straight-line
// statement. Heap stores change no local bindings.
func (fa *fnAnalysis) applyStmt(ev env, s lang.Stmt) {
	switch s := s.(type) {
	case *lang.VarDecl:
		if s.Type.IsPtr() {
			if s.Init != nil {
				ev[s.Name] = fa.evalAval(ev, s.Init)
			} else {
				ev[s.Name] = aval{top: true}
			}
		}
	case *lang.Assign:
		if id, ok := s.LHS.(*lang.Ident); ok {
			if _, isPtr := fa.te[id.Name]; isPtr {
				ev[id.Name] = fa.evalAval(ev, s.RHS)
			}
		}
	}
}

// evalAval computes the abstract value of a pointer expression.
func (fa *fnAnalysis) evalAval(ev env, e lang.Expr) aval {
	switch e := e.(type) {
	case *lang.Ident:
		if v, ok := ev[e.Name]; ok {
			return v
		}
		if _, isPtr := fa.te[e.Name]; isPtr {
			// Read before any assignment on this path: unknown, so
			// the summary stays conservative.
			return aval{top: true}
		}
		return aval{}
	case *lang.Null:
		return aval{null: true}
	case *lang.Arrow:
		return aval{heap: true}
	case *lang.Touch:
		return fa.evalAval(ev, e.E)
	case *lang.Call:
		return fa.callAval(ev, e)
	}
	return aval{}
}

// callAval maps a call's return value through the callee's summary:
// whatever parameters the return may alias translate into the abstract
// values of the corresponding arguments.
func (fa *fnAnalysis) callAval(ev env, c *lang.Call) aval {
	callee := fa.res.Prog.Func(c.Name)
	if callee == nil {
		if c.Name == AllocName {
			return aval{fresh: true}
		}
		return aval{top: true}
	}
	sum := fa.res.byName[c.Name]
	if sum == nil {
		return aval{top: true}
	}
	out := sum.ret
	out.params = 0
	for i := range callee.Params {
		if i >= len(c.Args) || i >= 64 {
			break
		}
		if sum.ret.params&(1<<uint(i)) != 0 {
			out = out.join(fa.evalAval(ev, c.Args[i]))
		}
	}
	return out
}

// summarize builds the function's effect summary (everything except the
// two cost bits) by folding the alias flow over the body and recording
// every statement and condition it reaches.
func (fa *fnAnalysis) summarize() *Summary {
	s := &Summary{
		Name:      fa.fn.Name,
		Pos:       fa.fn.Pos,
		Params:    paramNames(fa.fn),
		Recursive: core.IsRecursive(fa.fn),
		Mutual:    len(fa.inSCC) > 1,
	}
	reads := map[Region]bool{}
	writes := map[Region]bool{}
	var escapeMask uint64
	extern := map[string]bool{}

	record := func(ev env, st lang.Stmt, cond lang.Expr) {
		// Region reads: every Arrow chain in the statement (or branch
		// condition). The final link of a store chain is the write; its
		// prefix is reads.
		var exprs []lang.Expr
		var writeLHS *lang.Arrow
		switch st := st.(type) {
		case nil:
			exprs = append(exprs, cond)
		case *lang.VarDecl:
			if st.Init != nil {
				exprs = append(exprs, st.Init)
			}
		case *lang.Assign:
			exprs = append(exprs, st.RHS)
			if a, ok := st.LHS.(*lang.Arrow); ok {
				writeLHS = a
			}
		case *lang.Return:
			if st.E != nil {
				exprs = append(exprs, st.E)
				s.ret = s.ret.join(fa.evalAval(ev, st.E))
			}
		case *lang.ExprStmt:
			exprs = append(exprs, st.E)
		}
		for _, e := range exprs {
			for _, ch := range chainsIn(e) {
				for _, rg := range chainRegions(fa.res.Prog, fa.te, ch) {
					reads[rg] = true
				}
			}
		}
		if writeLHS != nil {
			regs := chainRegions(fa.res.Prog, fa.te, writeLHS)
			for i, rg := range regs {
				if i < len(regs)-1 {
					reads[rg] = true
				}
			}
			base, _ := lang.ChainBase(writeLHS)
			bv := fa.evalAval(ev, &lang.Ident{Name: base, Pos: lang.ExprPos(writeLHS)})
			if len(regs) > 0 && !bv.freshOnly() {
				writes[regs[len(regs)-1]] = true
			}
			escapeMask |= bv.params
			// Storing a pointer into the heap publishes its referent.
			if rhs := st.(*lang.Assign).RHS; rhs != nil {
				escapeMask |= fa.evalAval(ev, rhs).params
			}
		}
		// Calls: fold in callee effects.
		var calls []*lang.Call
		if st != nil {
			calls = callsIn(st)
		} else {
			for _, c := range callsInExpr(cond) {
				calls = append(calls, c)
			}
		}
		for _, c := range calls {
			if c.Future {
				s.Futures = true
			}
			callee := fa.res.Prog.Func(c.Name)
			if callee == nil {
				if c.Name == AllocName {
					continue
				}
				extern[c.Name] = true
				// Unknown effects: every pointer argument escapes.
				for _, a := range c.Args {
					escapeMask |= fa.evalAval(ev, a).params
				}
				continue
			}
			sum := fa.res.byName[c.Name]
			if sum == nil {
				continue
			}
			for _, rg := range sum.Reads {
				reads[rg] = true
			}
			for _, rg := range sum.Writes {
				writes[rg] = true
			}
			for _, x := range sum.Extern {
				extern[x] = true
			}
			if sum.Futures {
				s.Futures = true
			}
			escIdx := map[string]int{}
			for i, p := range callee.Params {
				escIdx[p.Name] = i
			}
			for _, pn := range sum.Escapes {
				i := escIdx[pn]
				if i < len(c.Args) {
					av := fa.evalAval(ev, c.Args[i])
					escapeMask |= av.params
					// An argument that may hold a pre-existing heap
					// object and gets written inside the callee is a
					// heap write here too — already covered by merging
					// sum.Writes above.
				}
			}
		}
	}

	// The alias flow: parameters alias their own referents on entry.
	entry := env{}
	for i, p := range fa.fn.Params {
		if p.Type.IsPtr() && i < 64 {
			entry[p.Name] = aval{params: 1 << uint(i)}
		}
	}
	lang.Fold(fa.fn.Body, lang.Flow[env]{
		Join:  joinEnv,
		Equal: equalEnv,
		Step: func(in env, n lang.Node) env {
			if in == nil {
				return nil // unreachable
			}
			ev := make(env, len(in))
			for k, v := range in {
				ev[k] = v
			}
			if st, ok := n.(lang.Stmt); ok {
				fa.applyStmt(ev, st)
			}
			return ev
		},
		Visit: func(n lang.Node, ev env) {
			if ev == nil {
				return // unreachable: never executes
			}
			if cond, ok := n.(lang.Expr); ok {
				record(ev, nil, cond)
			} else {
				record(ev, n.(lang.Stmt), nil)
			}
		},
	}, entry)

	s.Reads = sortedRegions(reads)
	s.Writes = sortedRegions(writes)
	for i, p := range fa.fn.Params {
		if i < 64 && escapeMask&(1<<uint(i)) != 0 {
			s.Escapes = append(s.Escapes, p.Name)
		}
	}
	s.Extern = sortedStrings(extern)
	s.Pure = len(s.Writes) == 0 && len(s.Escapes) == 0 && len(s.Extern) == 0
	return s
}

// chainsIn collects the maximal Arrow chains of an expression. A chain
// rooted at a variable has nothing further inside; any other base (a call)
// is searched for the chains in its arguments.
func chainsIn(e lang.Expr) []*lang.Arrow {
	var out []*lang.Arrow
	lang.Inspect(e, func(n lang.Node) bool {
		a, ok := n.(*lang.Arrow)
		if !ok {
			return true
		}
		out = append(out, a)
		_, rooted := lang.ChainBase(a)
		return !rooted
	})
	return out
}

// callsInExpr collects the call expressions in one expression.
func callsInExpr(e lang.Expr) []*lang.Call {
	if e == nil {
		return nil
	}
	return callsIn(&lang.ExprStmt{E: e})
}
