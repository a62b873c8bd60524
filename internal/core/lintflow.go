package core

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/lang/cfg"
)

// This file holds the CFG-based lint checks, all solved over function
// graphs (internal/lang/cfg) with the generic solver (internal/dataflow):
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
// Each lint solves to a fixpoint first and then replays the transfer over
// reachable blocks once, emitting diagnostics as it goes; Report.Lint
// sorts everything at the end, so emission order does not matter.

// lintFlow runs the four dataflow lints over every function.
func lintFlow(r *Report) []Diag {
	var diags []Diag
	for _, fn := range r.Prog.Funcs {
		g := cfg.Build(fn)
		te := lang.PtrVars(fn)
		reach := g.Reachable()
		diags = append(diags, lintUnreachable(g, reach)...)
		diags = append(diags, lintUseBeforeInit(g, te, reach)...)
		diags = append(diags, lintDeadStores(g, reach)...)
		diags = append(diags, lintNilDeref(g, te, reach)...)
	}
	return diags
}

// ---- unreachable ----

// lintUnreachable reports the head of every unreachable region: an
// unreachable block with content whose predecessors are all reachable (a
// pruned constant branch) or absent (the continuation after a return).
// Interior blocks of the region are suppressed so one dead region yields
// one diagnostic.
func lintUnreachable(g *cfg.Graph, reach []bool) []Diag {
	var diags []Diag
	for _, b := range g.Blocks {
		if reach[b.ID] {
			continue
		}
		head := true
		for _, p := range b.Preds() {
			if !reach[p.ID] {
				head = false
			}
		}
		if !head {
			continue
		}
		var pos lang.Pos
		switch {
		case len(b.Stmts) > 0:
			pos = lang.StmtPos(b.Stmts[0])
		case b.Cond != nil:
			pos = b.CondPos
		default:
			continue // empty structural block: nothing to point at
		}
		diags = append(diags, Diag{
			Pos: pos, Sev: DiagWarning, Code: "unreachable",
			Msg: "statement can never execute",
		})
	}
	return diags
}

// ---- shared set lattice ----

// varset is a set of variable names; nil is the empty set (bottom).
type varset map[string]bool

type varsetLattice struct{}

func (varsetLattice) Bottom() varset { return nil }

func (varsetLattice) Join(a, b varset) varset {
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

func (varsetLattice) Equal(a, b varset) bool {
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

// lintUseBeforeInit solves "which pointer variables may still be
// uninitialized" forward (parameters start initialized; a declaration
// without an initializer introduces the variable uninitialized; any
// assignment retires it) and flags reads of may-uninitialized pointers.
func lintUseBeforeInit(g *cfg.Graph, te typeEnv, reach []bool) []Diag {
	step := func(s varset, st lang.Stmt, report func(u cfg.VarUse)) {
		for _, u := range cfg.StmtReads(st) {
			if s[u.Name] && report != nil {
				report(u)
			}
		}
		switch st := st.(type) {
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
	res := dataflow.Solve(g, dataflow.Problem[varset]{
		Lattice:  varsetLattice{},
		Dir:      dataflow.Forward,
		Boundary: varset{},
		Transfer: func(n int, in varset) varset {
			s := in.clone()
			for _, st := range g.Block(n).Stmts {
				step(s, st, nil)
			}
			return s
		},
	})

	var diags []Diag
	seen := map[lang.Pos]bool{} // one diagnostic per use site
	report := func(u cfg.VarUse) {
		if seen[u.Pos] {
			return
		}
		seen[u.Pos] = true
		diags = append(diags, Diag{
			Pos: u.Pos, Sev: DiagWarning, Code: "use-before-init",
			Msg: fmt.Sprintf("pointer %q may be used before it is assigned", u.Name),
		})
	}
	for _, b := range g.Blocks {
		if !reach[b.ID] {
			continue
		}
		s := res.In[b.ID].clone()
		for _, st := range b.Stmts {
			step(s, st, report)
		}
		if b.Cond != nil {
			for _, u := range cfg.ExprReads(b.Cond) {
				if s[u.Name] {
					report(u)
				}
			}
		}
	}
	return diags
}

// ---- dead stores ----

// lintDeadStores solves liveness backward and flags assignments to
// variables that are dead at the store. Heap stores (p->f = …) are never
// flagged, and a declaration without an initializer stores nothing.
func lintDeadStores(g *cfg.Graph, reach []bool) []Diag {
	// step applies one statement backwards to the live set; report is
	// called for dead stores with the stored variable's name.
	step := func(live varset, st lang.Stmt, report func(pos lang.Pos, name string)) {
		switch st := st.(type) {
		case *lang.VarDecl:
			if st.Init != nil {
				if !live[st.Name] && report != nil {
					report(st.Pos, st.Name)
				}
				delete(live, st.Name)
				for _, u := range cfg.ExprReads(st.Init) {
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
				for _, u := range cfg.ExprReads(st.LHS) {
					live[u.Name] = true
				}
			}
			for _, u := range cfg.ExprReads(st.RHS) {
				live[u.Name] = true
			}
		default:
			for _, u := range cfg.StmtReads(st) {
				live[u.Name] = true
			}
		}
	}
	blockStep := func(n int, liveOut varset, report func(pos lang.Pos, name string)) varset {
		live := liveOut.clone()
		b := g.Block(n)
		if b.Cond != nil {
			for _, u := range cfg.ExprReads(b.Cond) {
				live[u.Name] = true
			}
		}
		for i := len(b.Stmts) - 1; i >= 0; i-- {
			step(live, b.Stmts[i], report)
		}
		return live
	}
	res := dataflow.Solve(g, dataflow.Problem[varset]{
		Lattice:  varsetLattice{},
		Dir:      dataflow.Backward,
		Boundary: varset{},
		Transfer: func(n int, liveOut varset) varset { return blockStep(n, liveOut, nil) },
	})

	var diags []Diag
	for _, b := range g.Blocks {
		if !reach[b.ID] {
			continue
		}
		blockStep(b.ID, res.In[b.ID], func(pos lang.Pos, name string) {
			diags = append(diags, Diag{
				Pos: pos, Sev: DiagWarning, Code: "dead-store",
				Msg: fmt.Sprintf("value stored to %q is never used", name),
			})
		})
	}
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

type nilLattice struct{}

func (nilLattice) Bottom() nilEnv { return nilEnv{} }

func (nilLattice) Join(a, b nilEnv) nilEnv {
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

func (nilLattice) Equal(a, b nilEnv) bool {
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

// lintNilDeref solves nullness forward with edge refinement and flags
// dereferences whose base is NULL on every path reaching them. After a
// dereference the base is assumed non-nil (execution did not survive
// otherwise), so one nil pointer reports once per chain, not per field.
func lintNilDeref(g *cfg.Graph, te typeEnv, reach []bool) []Diag {
	step := func(m map[string]nilState, st lang.Stmt, report func(d cfg.Deref)) {
		for _, d := range cfg.StmtDerefs(st) {
			if m[d.Base] == nsNil && report != nil {
				report(d)
			}
			if _, isPtr := te[d.Base]; isPtr {
				m[d.Base] = nsNonNil
			}
		}
		switch st := st.(type) {
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
	condDerefs := func(m map[string]nilState, b *cfg.Block, report func(d cfg.Deref)) {
		if b.Cond == nil {
			return
		}
		for _, d := range cfg.ExprDerefs(b.Cond) {
			if m[d.Base] == nsNil && report != nil {
				report(d)
			}
			if _, isPtr := te[d.Base]; isPtr {
				m[d.Base] = nsNonNil
			}
		}
	}
	lat := nilLattice{}
	res := dataflow.Solve(g, dataflow.Problem[nilEnv]{
		Lattice:  lat,
		Dir:      dataflow.Forward,
		Boundary: nilEnv{reachable: true, m: map[string]nilState{}},
		Transfer: func(n int, in nilEnv) nilEnv {
			if !in.reachable {
				return in
			}
			m := cloneNil(in.m)
			for _, st := range g.Block(n).Stmts {
				step(m, st, nil)
			}
			condDerefs(m, g.Block(n), nil)
			return nilEnv{reachable: true, m: m}
		},
		TransferEdge: func(from, to int, v nilEnv) nilEnv {
			if !v.reachable {
				return v
			}
			b := g.Block(from)
			tb, fb, ok := b.Branch()
			if !ok || tb == fb {
				return v
			}
			m := cloneNil(v.m)
			refineNil(te, m, b.Cond, tb.ID == to)
			return nilEnv{reachable: true, m: m}
		},
	})

	var diags []Diag
	seen := map[lang.Pos]bool{}
	report := func(d cfg.Deref) {
		if seen[d.Pos] {
			return
		}
		seen[d.Pos] = true
		diags = append(diags, Diag{
			Pos: d.Pos, Sev: DiagError, Code: "nil-deref",
			Msg: fmt.Sprintf("dereference of %q, which is always NULL here", d.Base),
		})
	}
	for _, b := range g.Blocks {
		if !reach[b.ID] || !res.In[b.ID].reachable {
			continue
		}
		m := cloneNil(res.In[b.ID].m)
		for _, st := range b.Stmts {
			step(m, st, report)
		}
		condDerefs(m, b, report)
	}
	return diags
}
