package core

import (
	"fmt"

	"repro/internal/lang"
)

// This file holds the flow-sensitive lint checks, each a lang.Fold over
// the function body:
//
//   - unreachable (warning): statements no execution reaches — code after
//     a return, the body of a constant-false branch, anything following
//     an infinite loop.
//   - use-before-init (warning): a pointer variable that may be read
//     before any assignment reaches it. Forward may-analysis: the set of
//     possibly-uninitialized pointers, union join.
//   - dead-store (warning): a value assigned to a variable that no path
//     ever reads. Backward liveness with union join; stores through field
//     paths are heap writes and never flagged.
//   - nil-deref (error): a dereference of a variable that is NULL on
//     every path reaching it. Forward must-analysis over {nil, non-nil}
//     with branch-edge refinement (p == NULL, p != NULL, p, !p, &&, ||),
//     so the guard idiom `if (p == NULL) return;` sharpens the fall-
//     through state.
//
// Each lint folds to a fixpoint and reports from Visit, which replays the
// transfer once per statement and condition with the fixpoint state; code
// the reachability fold marks dead is skipped. Report.Lint sorts
// everything at the end, so emission order does not matter.

// lintFlow runs the four dataflow lints over every function.
func lintFlow(r *Report) []Diag {
	var diags []Diag
	for _, fn := range r.Prog.Funcs {
		dead, unreachable := lintUnreachable(fn)
		diags = append(diags, unreachable...)
		diags = append(diags, lintUseBeforeInit(fn, dead)...)
		diags = append(diags, lintDeadStores(fn, dead)...)
		diags = append(diags, lintNilDeref(fn, lang.PtrVars(fn), dead)...)
	}
	return diags
}

// ---- unreachable ----

// reach is the reachability of a program point. Constant conditions
// prune: the body of if (0) and the code after while (1) are dead.
type reach uint8

const (
	// inDead is inside a dead region, past its first statement.
	inDead reach = iota
	// deadStart is where a dead region starts: right after a return, a
	// pruned branch or a loop that never exits.
	deadStart
	live
)

// lintUnreachable folds reachability forward and reports a dead statement
// or condition when some path reaches it straight from a return, a pruned
// branch or a loop that never exits, through no other dead code: one
// diagnostic where each such path enters a dead region. Joins keep the
// larger state, so a loop entered dead reports at its condition although
// its back edge comes from its own dead body. It returns the dead
// statements and conditions, which the other lints skip.
func lintUnreachable(fn *lang.FuncDecl) (map[lang.Node]bool, []Diag) {
	at := map[lang.Node]lang.Pos{} // a condition reports at its statement
	lang.Inspect(fn.Body, func(n lang.Node) bool {
		switch n := n.(type) {
		case *lang.If:
			at[n.Cond] = n.Pos
		case *lang.While:
			at[n.Cond] = n.Pos
		case *lang.For:
			at[n.Cond] = n.Pos
		}
		return true
	})
	dead := map[lang.Node]bool{}
	var diags []Diag
	lang.Fold(fn.Body, lang.Flow[reach]{
		Bottom: deadStart,
		Join:   func(a, b reach) reach { return max(a, b) },
		Equal:  func(a, b reach) bool { return a == b },
		Step: func(s reach, _ lang.Node) reach {
			if s == live {
				return live
			}
			return inDead
		},
		Cond: func(s reach, e lang.Expr, taken bool) reach {
			if v, ok := lang.ConstCond(e); ok && v != taken && s == live {
				return deadStart
			}
			return s
		},
		Visit: func(n lang.Node, s reach) {
			if s == live {
				return
			}
			dead[n] = true
			if s != deadStart {
				return
			}
			pos, ok := at[n]
			if !ok {
				pos = lang.StmtPos(n.(lang.Stmt))
			}
			diags = append(diags, Diag{
				Pos: pos, Sev: DiagWarning, Code: "unreachable",
				Msg: "statement can never execute",
			})
		},
	}, live)
	return dead, diags
}

// ---- shared set lattice ----

// varset is a set of variable names; nil is the empty set (bottom).
type varset map[string]bool

func (a varset) join(b varset) varset {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(varset, len(a)+len(b))
	for v := range a {
		out[v] = true
	}
	for v := range b {
		out[v] = true
	}
	return out
}

func (a varset) equal(b varset) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

func (s varset) clone() varset {
	out := make(varset, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

// ---- use-before-init ----

// lintUseBeforeInit folds "which pointer variables may still be
// uninitialized" forward (parameters start initialized; a declaration
// without an initializer introduces the variable uninitialized; any
// assignment retires it) and flags reads of may-uninitialized pointers.
func lintUseBeforeInit(fn *lang.FuncDecl, dead map[lang.Node]bool) []Diag {
	step := func(s varset, n lang.Node, report func(u lang.VarUse)) {
		for _, u := range lang.Reads(n) {
			if s[u.Name] && report != nil {
				report(u)
			}
		}
		switch st := n.(type) {
		case *lang.VarDecl:
			if st.Type.IsPtr() && st.Init == nil {
				s[st.Name] = true
			} else {
				delete(s, st.Name)
			}
		case *lang.Assign:
			if id, ok := st.LHS.(*lang.Ident); ok {
				delete(s, id.Name)
			}
		}
	}

	var diags []Diag
	seen := map[lang.Pos]bool{} // one diagnostic per use site
	report := func(u lang.VarUse) {
		if seen[u.Pos] {
			return
		}
		seen[u.Pos] = true
		diags = append(diags, Diag{
			Pos: u.Pos, Sev: DiagWarning, Code: "use-before-init",
			Msg: fmt.Sprintf("pointer %q may be used before it is assigned", u.Name),
		})
	}
	lang.Fold(fn.Body, lang.Flow[varset]{
		Join:  varset.join,
		Equal: varset.equal,
		Step: func(in varset, n lang.Node) varset {
			s := in.clone()
			step(s, n, nil)
			return s
		},
		Visit: func(n lang.Node, in varset) {
			if !dead[n] {
				step(in.clone(), n, report)
			}
		},
	}, varset{})
	return diags
}

// ---- dead stores ----

// lintDeadStores folds liveness backward and flags assignments to
// variables that are dead at the store. Heap stores (p->f = …) are never
// flagged, and a declaration without an initializer stores nothing.
func lintDeadStores(fn *lang.FuncDecl, dead map[lang.Node]bool) []Diag {
	// step applies one statement or condition backwards to the live set;
	// report is called for dead stores with the stored variable's name.
	step := func(live varset, n lang.Node, report func(pos lang.Pos, name string)) {
		switch st := n.(type) {
		case *lang.VarDecl:
			if st.Init != nil {
				if !live[st.Name] && report != nil {
					report(st.Pos, st.Name)
				}
				delete(live, st.Name)
				for _, u := range lang.Reads(st.Init) {
					live[u.Name] = true
				}
				return
			}
			delete(live, st.Name)
		case *lang.Assign:
			if id, ok := st.LHS.(*lang.Ident); ok {
				if !live[id.Name] && report != nil {
					report(st.Pos, id.Name)
				}
				delete(live, id.Name)
			} else {
				for _, u := range lang.Reads(st.LHS) {
					live[u.Name] = true
				}
			}
			for _, u := range lang.Reads(st.RHS) {
				live[u.Name] = true
			}
		default:
			for _, u := range lang.Reads(n) {
				live[u.Name] = true
			}
		}
	}

	var diags []Diag
	lang.Fold(fn.Body, lang.Flow[varset]{
		Backward: true,
		Join:     varset.join,
		Equal:    varset.equal,
		Step: func(liveOut varset, n lang.Node) varset {
			live := liveOut.clone()
			step(live, n, nil)
			return live
		},
		Visit: func(n lang.Node, liveOut varset) {
			if dead[n] {
				return
			}
			step(liveOut.clone(), n, func(pos lang.Pos, name string) {
				diags = append(diags, Diag{
					Pos: pos, Sev: DiagWarning, Code: "dead-store",
					Msg: fmt.Sprintf("value stored to %q is never used", name),
				})
			})
		},
	}, varset{})
	return diags
}

// ---- guaranteed-nil dereference ----

// nilState is the abstract nullness of one pointer variable; absence from
// the map means unknown.
type nilState uint8

const (
	nsNil nilState = iota + 1
	nsNonNil
)

// nilEnv is the dataflow value: per-variable nullness on reachable paths,
// bottom (reachable=false) elsewhere.
type nilEnv struct {
	reachable bool
	m         map[string]nilState
}

func (a nilEnv) join(b nilEnv) nilEnv {
	if !a.reachable {
		return b
	}
	if !b.reachable {
		return a
	}
	out := map[string]nilState{}
	for v, sa := range a.m {
		if sb, ok := b.m[v]; ok && sa == sb {
			out[v] = sa
		}
	}
	return nilEnv{reachable: true, m: out}
}

func (a nilEnv) equal(b nilEnv) bool {
	if a.reachable != b.reachable {
		return false
	}
	if len(a.m) != len(b.m) {
		return false
	}
	for v, sa := range a.m {
		if b.m[v] != sa {
			return false
		}
	}
	return true
}

func cloneNil(m map[string]nilState) map[string]nilState {
	out := make(map[string]nilState, len(m))
	for v, s := range m {
		out[v] = s
	}
	return out
}

// nilValue abstracts the RHS of a pointer assignment.
func nilValue(m map[string]nilState, e lang.Expr) (nilState, bool) {
	switch e := e.(type) {
	case *lang.Null:
		return nsNil, true
	case *lang.Ident:
		s, ok := m[e.Name]
		return s, ok
	}
	return 0, false
}

// refineNil sharpens the nullness map with the truth (taken) or falsity
// (!taken) of a branch condition.
func refineNil(te typeEnv, m map[string]nilState, cond lang.Expr, taken bool) {
	set := func(name string, s nilState) {
		if _, isPtr := te[name]; isPtr {
			m[name] = s
		}
	}
	switch c := cond.(type) {
	case *lang.Ident:
		if taken {
			set(c.Name, nsNonNil)
		} else {
			set(c.Name, nsNil)
		}
	case *lang.Unary:
		if c.Op == "!" {
			refineNil(te, m, c.X, !taken)
		}
	case *lang.Binary:
		switch c.Op {
		case "==", "!=":
			// Only x == NULL / NULL == x (and !=) refine.
			var id *lang.Ident
			if l, ok := c.L.(*lang.Ident); ok {
				if _, n := c.R.(*lang.Null); n {
					id = l
				}
			} else if r, ok := c.R.(*lang.Ident); ok {
				if _, n := c.L.(*lang.Null); n {
					id = r
				}
			}
			if id == nil {
				return
			}
			if isNil := taken == (c.Op == "=="); isNil {
				set(id.Name, nsNil)
			} else {
				set(id.Name, nsNonNil)
			}
		case "&&":
			if taken {
				refineNil(te, m, c.L, true)
				refineNil(te, m, c.R, true)
			}
		case "||":
			if !taken {
				refineNil(te, m, c.L, false)
				refineNil(te, m, c.R, false)
			}
		}
	}
}

// lintNilDeref folds nullness forward with branch refinement and flags
// dereferences whose base is NULL on every path reaching them. After a
// dereference the base is assumed non-nil (execution did not survive
// otherwise), so one nil pointer reports once per chain, not per field.
func lintNilDeref(fn *lang.FuncDecl, te typeEnv, dead map[lang.Node]bool) []Diag {
	step := func(m map[string]nilState, n lang.Node, report func(d lang.Deref)) {
		for _, d := range lang.Derefs(n) {
			if m[d.Base] == nsNil && report != nil {
				report(d)
			}
			if _, isPtr := te[d.Base]; isPtr {
				m[d.Base] = nsNonNil
			}
		}
		switch st := n.(type) {
		case *lang.VarDecl:
			if !st.Type.IsPtr() {
				return
			}
			if s, ok := nilValue(m, st.Init); ok {
				m[st.Name] = s
			} else {
				delete(m, st.Name)
			}
		case *lang.Assign:
			id, ok := st.LHS.(*lang.Ident)
			if !ok {
				return // heap store: no local changes
			}
			if _, isPtr := te[id.Name]; !isPtr {
				return
			}
			if s, ok := nilValue(m, st.RHS); ok {
				m[id.Name] = s
			} else {
				delete(m, id.Name)
			}
		}
	}

	var diags []Diag
	seen := map[lang.Pos]bool{}
	report := func(d lang.Deref) {
		if seen[d.Pos] {
			return
		}
		seen[d.Pos] = true
		diags = append(diags, Diag{
			Pos: d.Pos, Sev: DiagError, Code: "nil-deref",
			Msg: fmt.Sprintf("dereference of %q, which is always NULL here", d.Base),
		})
	}
	lang.Fold(fn.Body, lang.Flow[nilEnv]{
		Join:  nilEnv.join,
		Equal: nilEnv.equal,
		Step: func(in nilEnv, n lang.Node) nilEnv {
			if !in.reachable {
				return in
			}
			m := cloneNil(in.m)
			step(m, n, nil)
			return nilEnv{reachable: true, m: m}
		},
		Cond: func(v nilEnv, e lang.Expr, taken bool) nilEnv {
			if !v.reachable {
				return v
			}
			m := cloneNil(v.m)
			refineNil(te, m, e, taken)
			return nilEnv{reachable: true, m: m}
		},
		Visit: func(n lang.Node, in nilEnv) {
			if !dead[n] && in.reachable {
				step(cloneNil(in.m), n, report)
			}
		},
	}, nilEnv{reachable: true, m: map[string]nilState{}})
	return diags
}
