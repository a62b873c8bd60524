package core

import (
	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/lang/cfg"
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
	// summaries holds return-path summaries when the interprocedural
	// extension is enabled; summarizeFn resolves them on demand while
	// they are being computed.
	summaries   map[string]retSummary
	summarizeFn func(name string) (retSummary, bool)
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
	if c, ok := e.(*lang.Call); ok && a.params.InterproceduralReturns && !c.Future {
		if sum, ok := a.lookupSummary(c.Name); ok {
			g := a.prog.Func(c.Name)
			for i, p := range g.Params {
				if p.Name != sum.param || i >= len(c.Args) {
					continue
				}
				v := a.evalExpr(ev, c.Args[i])
				if !v.known {
					break
				}
				return symval{
					known: true,
					base:  v.base,
					aff:   v.aff * sum.aff,
					ident: v.ident && sum.ident,
				}
			}
		}
	}
	// Other calls, literals, arithmetic: no value tracked (the paper's
	// preliminary implementation does not consider return values at all).
	return unknownVal
}

// lookupSummary resolves a return-path summary by name.
func (a *analysis) lookupSummary(name string) (retSummary, bool) {
	if s, ok := a.summaries[name]; ok {
		return s, true
	}
	if a.summarizeFn != nil {
		return a.summarizeFn(name)
	}
	return retSummary{}, false
}

// killAssigned marks every variable assigned anywhere inside s as unknown
// (used for nested loops, which the analysis treats as opaque within the
// enclosing loop's dataflow).
func killAssigned(ev env, s lang.Stmt) {
	for _, v := range cfg.StmtDefs(s) {
		ev[v] = unknownVal
	}
}

// transferStmt applies one straight-line statement's effect to the
// symbolic environment in place. Nested syntactic loops arrive opaque
// (body-mode CFG blocks keep them as single statements) and kill their
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

// envVal is the dataflow value for the update-matrix problem: a symbolic
// environment on reachable paths, bottom (reachable=false) elsewhere.
// Bottom arises at blocks cut off by a return, whose values must not
// reach the iteration's end.
type envVal struct {
	reachable bool
	vals      env
}

// envLattice lifts the paper's branch-join rule to a join-semilattice:
// bottom is the unreachable path (join identity) and joining two
// reachable environments averages matching updates and omits one-sided
// ones (the join function above).
type envLattice struct{}

func (envLattice) Bottom() envVal { return envVal{} }

func (envLattice) Join(a, b envVal) envVal {
	if !a.reachable {
		return b
	}
	if !b.reachable {
		return a
	}
	return envVal{reachable: true, vals: join(a.vals, b.vals)}
}

func (envLattice) Equal(a, b envVal) bool {
	if a.reachable != b.reachable {
		return false
	}
	if !a.reachable {
		return true
	}
	if len(a.vals) != len(b.vals) {
		return false
	}
	for k, v := range a.vals {
		if b.vals[k] != v {
			return false
		}
	}
	return true
}

// loopMatrix computes the update matrix of a syntactic loop (§4.2) by
// solving a forward dataflow problem over the acyclic per-iteration CFG
// of the body: start from the identity environment, apply each block's
// statements, and let the lattice join implement the paper's branch-merge
// rule at every merge point. Whatever non-identity derivations reach the
// exit — the head of the next iteration — become matrix entries. Paths
// that return leave the loop; their blocks have no successors, so their
// environments never reach the exit.
func (a *analysis) loopMatrix(body lang.Stmt, post lang.Stmt) Matrix {
	g := cfg.BuildBody(body, post)
	res := dataflow.Solve(g, dataflow.Problem[envVal]{
		Lattice:  envLattice{},
		Dir:      dataflow.Forward,
		Boundary: envVal{reachable: true, vals: identityEnv(a.te)},
		Transfer: func(n int, in envVal) envVal {
			if !in.reachable {
				return in
			}
			ev := in.vals.clone()
			for _, s := range g.Block(n).Stmts {
				a.transferStmt(ev, s)
			}
			return envVal{reachable: true, vals: ev}
		},
	})
	m := Matrix{}
	exit := res.Out[g.Exit()]
	if !exit.reachable {
		return m
	}
	for v, val := range exit.vals {
		if val.known && !val.ident {
			m.set(v, val.base, val.aff)
		}
	}
	return m
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

// recCalls walks a statement collecting, along the way, the combined
// updates of the function's parameters at recursive call sites. It threads
// the symbolic environment through transferStmt. Calls inside nested
// syntactic loops are ignored (their per-iteration updates are not
// loop-invariant).
//
// Unlike loopMatrix, this walk is not re-hosted on the CFG solver: the
// recursion rule merges per-branch call-update deltas (branchCombine
// averages only across branches that both recurse), and that combination
// is not path-composable — branchCombine(seq(p,u1), seq(p,u2)) differs
// from seq(p, branchCombine(u1,u2)) because the omission rule must see
// each branch's delta, not the whole path. A structured fold over the
// syntax is the natural shape; the shared join rule itself (join /
// avgCombine) is the same code the lattice uses.
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
		var outEnv env
		switch {
		case t1 && t2:
			outEnv = e1
		case t1:
			outEnv = e2
		case t2:
			outEnv = e1
		default:
			outEnv = join(e1, e2)
		}
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
		return outEnv, ups, t1 && t2
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
