package core

import (
	"sort"

	"repro/internal/lang"
)

// Report is the result of analyzing a program: per function, the tree of
// control loops with their update matrices and mechanism choices.
type Report struct {
	Prog   *lang.Program
	Params Params
	Funcs  []*FuncReport
}

// FuncReport holds one function's top-level control loops (a recursion
// loop, if the function is recursive, contains the syntactic loops).
type FuncReport struct {
	Fn    *lang.FuncDecl
	Loops []*Loop
}

// Analyze runs the full three-step selection process on a program.
func Analyze(prog *lang.Program, params Params) *Report {
	r := &Report{Prog: prog, Params: params}
	for _, f := range prog.Funcs {
		a := &analysis{prog: prog, fn: f, te: lang.PtrVars(f), params: params}
		r.Funcs = append(r.Funcs, &FuncReport{Fn: f, Loops: a.buildFuncLoops()})
	}
	r.expandCalls()
	for _, fr := range r.Funcs {
		for _, l := range fr.Loops {
			selectMechanisms(l, params)
		}
	}
	for _, fr := range r.Funcs {
		for _, l := range fr.Loops {
			bottleneckPass(l)
		}
	}
	return r
}

// expandCalls attaches, under every loop, instances of the loops of the
// functions it directly calls, carrying the argument bindings. This is the
// limited interprocedural view the bottleneck pass needs (the paper's
// preliminary implementation does not analyze loops spanning procedures,
// but Figure 5's interaction crosses a call). Instances are single-level:
// the callee's own call expansions are not copied.
func (r *Report) expandCalls() {
	byName := map[string]*FuncReport{}
	for _, fr := range r.Funcs {
		byName[fr.Fn.Name] = fr
	}
	for _, fr := range r.Funcs {
		a := &analysis{prog: r.Prog, fn: fr.Fn, te: lang.PtrVars(fr.Fn), params: r.Params}
		for _, l := range fr.Loops {
			expandLoopCalls(l, a, byName)
		}
	}
}

// expandLoopCalls instantiates callee loops under l and recurses into l's
// syntactic children.
func expandLoopCalls(l *Loop, a *analysis, byName map[string]*FuncReport) {
	syntactic := append([]*Loop(nil), l.Children...)
	for _, c := range directCalls(loopBody(l)) {
		if c.Name == l.Fn.Name {
			continue // the recursion loop itself
		}
		callee := byName[c.Name]
		if callee == nil || len(callee.Loops) == 0 {
			continue
		}
		argBase := map[string]string{}
		ev := identityEnv(a.te)
		for i, p := range callee.Fn.Params {
			if !p.Type.IsPtr() || i >= len(c.Args) {
				continue
			}
			if v := a.evalExpr(ev, c.Args[i]); v.known {
				argBase[p.Name] = v.base
			}
		}
		for _, cl := range callee.Loops {
			inst := cloneLoop(cl, l)
			inst.ArgBase = argBase
			l.Children = append(l.Children, inst)
		}
	}
	for _, c := range syntactic {
		expandLoopCalls(c, a, byName)
	}
}

// loopBody returns the statement whose direct (non-nested-loop) calls
// belong to the loop.
func loopBody(l *Loop) lang.Stmt {
	if l.Kind == RecursionLoop {
		return l.Fn.Body
	}
	return l.bodyStmt
}

// cloneLoop copies a callee loop subtree for instantiation under a caller
// loop. Matrices and flags are shared; selection fields are re-derived.
func cloneLoop(l *Loop, parent *Loop) *Loop {
	c := &Loop{
		Kind:     l.Kind,
		Fn:       l.Fn,
		Label:    l.Label,
		Pos:      l.Pos,
		Parent:   parent,
		Matrix:   l.Matrix,
		Parallel: l.Parallel,
		bodyStmt: l.bodyStmt,
		origin:   l,
	}
	for _, ch := range l.Children {
		if ch.ArgBase != nil {
			continue // don't copy the callee's own call expansions
		}
		cc := cloneLoop(ch, c)
		c.Children = append(c.Children, cc)
	}
	return c
}

// directCalls collects the calls in a statement subtree that are not inside
// a nested syntactic loop.
func directCalls(s lang.Stmt) []*lang.Call {
	var calls []*lang.Call
	lang.Inspect(s, func(n lang.Node) bool {
		switch n := n.(type) {
		case *lang.While, *lang.For:
			return false // calls inside nested loops belong to those loops
		case *lang.Call:
			calls = append(calls, n)
		}
		return true
	})
	return calls
}

// selectMechanisms is the heuristic's first pass (§4.3): per control loop,
// pick the induction variable with the strongest update affinity; migrate
// it if the affinity meets the threshold or the loop is parallelizable
// (migration is what spawns new threads), else cache it. Loops without an
// induction variable select migration for the same variable as their
// parent. All other variables are cached.
func selectMechanisms(l *Loop, p Params) {
	bestVar, bestAff := "", -1.0
	vars := make([]string, 0, len(l.Matrix))
	for v := range l.Matrix {
		vars = append(vars, v)
	}
	sort.Strings(vars) // deterministic tie-break
	for _, v := range vars {
		if aff, ok := l.Matrix.Diagonal(v); ok && aff > bestAff {
			bestVar, bestAff = v, aff
		}
	}
	switch {
	case bestVar == "":
		if l.Parent != nil && l.Parent.Var != "" && l.Parent.Mech == ChooseMigrate {
			l.Var = l.Parent.Var
			l.Mech = ChooseMigrate
			l.Inherited = true
		} else {
			l.Mech = ChooseCache
		}
	case bestAff >= p.Threshold || l.Parallel:
		l.Var, l.Affinity, l.Mech = bestVar, bestAff, ChooseMigrate
	default:
		l.Var, l.Affinity, l.Mech = bestVar, bestAff, ChooseCache
	}
	for _, c := range l.Children {
		selectMechanisms(c, p)
	}
}

// bottleneckPass is the heuristic's second pass (§4.3, Figure 5): inside a
// parallel loop, an inner loop that migrates on a variable whose initial
// value is the same across the outer iterations would serialize every
// thread on one processor. The approximation: if the inner loop's
// induction variable (mapped through call-site argument bindings) is not
// updated in the parallel ancestor's matrix, assume a bottleneck and demote
// the inner loop to caching.
func bottleneckPass(l *Loop) {
	if l.Parallel {
		var walk func(d *Loop)
		walk = func(d *Loop) {
			if d.Mech == ChooseMigrate && !d.Inherited {
				// Demote only when the inner loop's variable is
				// positively traceable into this frame and is not
				// updated here. An untraceable entry value (e.g. a
				// function's return value, which the preliminary
				// analysis does not model) is assumed to differ per
				// iteration — this keeps TSP's per-merge tour walks
				// migrating, matching the paper's "M" for TSP.
				v := baseInAncestor(l, d)
				if v != "" && len(l.Matrix[v]) == 0 {
					d.Mech = ChooseCache
					d.Bottleneck = true
					for o := d.origin; o != nil; o = o.origin {
						o.DemotedByContext = true
					}
				}
			}
			for _, c := range d.Children {
				walk(c)
			}
		}
		for _, c := range l.Children {
			walk(c)
		}
	}
	for _, c := range l.Children {
		bottleneckPass(c)
	}
}

// baseInAncestor translates d's induction variable into ancestor p's frame,
// applying the call-site argument binding at every call-instance boundary
// on the way up. It returns "" when the variable cannot be traced.
func baseInAncestor(p, d *Loop) string {
	v := d.Var
	for x := d; x != nil && x != p; x = x.Parent {
		if v == "" {
			return ""
		}
		if x.ArgBase != nil {
			v = x.ArgBase[v]
		}
	}
	return v
}
