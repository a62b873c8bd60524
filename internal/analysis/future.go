package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkFutureDiscipline verifies that a future returned by rt.Spawn is
// touched on every control-flow path before it goes out of scope, and
// never touched twice.  An untouched future's value is lost and its
// parent never waits for it: rt.Run still runs the body to completion and
// its cycles count in the makespan, but nothing the parent does is ordered
// after the body, and Stats.Touches falls short of Stats.Futures.  A
// second touch returns the value again, counts a second Stats.Touches and
// charges Cost.Touch a second time, inflating the overhead a run reports.
//
// The analysis is local and conservative: it tracks only futures bound
// to a plain variable by `f := rt.Spawn(...)`.  A future that escapes —
// stored in a slice or struct, passed to a call, returned, reassigned,
// or captured by a closure — is skipped rather than guessed at.
func checkFutureDiscipline(p *Package) []Finding {
	var fs []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					fs = append(fs, p.futuresInBody(fn.Body)...)
				}
			case *ast.FuncLit:
				fs = append(fs, p.futuresInBody(fn.Body)...)
			}
			return true
		})
	}
	return fs
}

// walkShallow visits root's subtree without descending into nested
// function literals (each literal is analysed as its own body).
func walkShallow(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, ok := m.(*ast.FuncLit); ok && m != root {
			return false
		}
		return fn(m)
	})
}

// futuresInBody analyses one function body: spawns whose results are
// discarded outright, then per-variable touch discipline.
func (p *Package) futuresInBody(body *ast.BlockStmt) []Finding {
	var fs []Finding
	type tracked struct {
		obj types.Object
		def *ast.AssignStmt
	}
	var vars []tracked
	walkShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && p.isSpawn(call) {
				fs = append(fs, p.finding("future-discipline", n.Pos(),
					"result of Spawn discarded; the future is never touched"))
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !p.isSpawn(call) || i >= len(n.Lhs) || len(n.Lhs) != len(n.Rhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if id.Name == "_" {
					fs = append(fs, p.finding("future-discipline", n.Pos(),
						"result of Spawn discarded; the future is never touched"))
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj != nil && len(n.Lhs) == 1 {
					vars = append(vars, tracked{obj, n})
				}
			}
		}
		return true
	})
	for _, v := range vars {
		fs = append(fs, p.futureVar(body, v.obj, v.def)...)
	}
	return fs
}

// futureVar runs the touch-discipline flow analysis for one future
// variable, unless the future escapes local analysis.
func (p *Package) futureVar(body *ast.BlockStmt, obj types.Object, def *ast.AssignStmt) []Finding {
	escaped := false
	var list []ast.Stmt
	idx := -1
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if escaped {
			return false
		}
		if n == def && len(stack) > 0 {
			switch parent := stack[len(stack)-1].(type) {
			case *ast.BlockStmt:
				list = parent.List
			case *ast.CaseClause:
				list = parent.Body
			case *ast.CommClause:
				list = parent.Body
			}
			for i, s := range list {
				if s == def {
					idx = i
				}
			}
		}
		id, ok := n.(*ast.Ident)
		if !ok || p.Info.Uses[id] != obj {
			return true
		}
		for _, a := range stack {
			if _, ok := a.(*ast.FuncLit); ok {
				escaped = true // captured by a closure
				return false
			}
		}
		parent := stack[len(stack)-1]
		switch parent := parent.(type) {
		case *ast.AssignStmt:
			if parent == def {
				return true // the definition itself
			}
		case *ast.SelectorExpr:
			if parent.Sel.Name == "Touch" && len(stack) >= 2 {
				if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == parent {
					return true // a touch
				}
			}
		case *ast.BinaryExpr:
			return true // nil comparison or similar inspection
		}
		escaped = true
		return false
	})
	if escaped || idx < 0 {
		return nil
	}
	ff := &futureFlow{p: p, obj: obj}
	st, terminated := ff.stmts(list[idx+1:], stUntouched)
	if !terminated {
		switch st {
		case stUntouched:
			ff.report(def.Pos(), "future %q is never touched", obj.Name())
		case stMaybe:
			ff.report(def.Pos(), "future %q is not touched on every path", obj.Name())
		}
	}
	return ff.fs
}

// touchState abstracts how many times the future has been touched on
// the paths reaching a program point.
type touchState int

const (
	stUntouched touchState = iota
	stMaybe                // touched on some paths only
	stTouched
)

func join(a, b touchState) touchState {
	if a == b {
		return a
	}
	return stMaybe
}

type futureFlow struct {
	p   *Package
	obj types.Object
	fs  []Finding
}

func (ff *futureFlow) report(pos token.Pos, format string, args ...any) {
	ff.fs = append(ff.fs, ff.p.finding("future-discipline", pos, format, args...))
}

// stmts runs the statement list from state st; the bool result reports
// whether every path through the list terminates (returns).
func (ff *futureFlow) stmts(list []ast.Stmt, st touchState) (touchState, bool) {
	for _, s := range list {
		var term bool
		st, term = ff.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

// expr applies every touch of the tracked future inside n (skipping
// nested function literals) to the state, reporting double touches.
func (ff *futureFlow) expr(n ast.Node, st touchState) touchState {
	if n == nil {
		return st
	}
	walkShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Touch" {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || ff.p.Info.Uses[id] != ff.obj {
			return true
		}
		if st == stTouched {
			ff.report(call.Pos(), "future %q touched again; a future completes exactly once", ff.obj.Name())
		}
		st = stTouched
		return true
	})
	return st
}

func (ff *futureFlow) stmt(s ast.Stmt, st touchState) (touchState, bool) {
	switch s := s.(type) {
	case nil:
		return st, false
	case *ast.BlockStmt:
		return ff.stmts(s.List, st)
	case *ast.LabeledStmt:
		return ff.stmt(s.Stmt, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = ff.expr(r, st)
		}
		switch st {
		case stUntouched:
			ff.report(s.Pos(), "future %q is not touched before this return", ff.obj.Name())
		case stMaybe:
			ff.report(s.Pos(), "future %q is not touched on every path reaching this return", ff.obj.Name())
		}
		return st, true
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = ff.stmt(s.Init, st)
		}
		st = ff.expr(s.Cond, st)
		thenSt, thenTerm := ff.stmt(s.Body, st)
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = ff.stmt(s.Else, st)
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return join(thenSt, elseSt), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = ff.stmt(s.Init, st)
		}
		st = ff.expr(s.Cond, st)
		bodySt, _ := ff.stmt(s.Body, st)
		if s.Post != nil {
			bodySt, _ = ff.stmt(s.Post, bodySt)
		}
		// The body may run zero times.
		return join(st, bodySt), false
	case *ast.RangeStmt:
		st = ff.expr(s.X, st)
		bodySt, _ := ff.stmt(s.Body, st)
		return join(st, bodySt), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = ff.stmt(s.Init, st)
		}
		st = ff.expr(s.Tag, st)
		return ff.clauses(s.Body, st, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = ff.stmt(s.Init, st)
		}
		st = ff.expr(s.Assign, st)
		return ff.clauses(s.Body, st, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		// A select without default still runs exactly one clause.
		return ff.clauses(s.Body, st, true)
	case *ast.BranchStmt:
		// break/continue/goto: stop tracking this path rather than
		// model label targets.
		return st, true
	case *ast.DeferStmt:
		return ff.expr(s.Call, st), false
	case *ast.GoStmt:
		return ff.expr(s.Call, st), false
	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt, ...
		return ff.expr(s, st), false
	}
}

// clauses joins the branches of a switch or select body.  exhaustive
// says one clause always runs (a default is present, or it is a select).
func (ff *futureFlow) clauses(body *ast.BlockStmt, st touchState, exhaustive bool) (touchState, bool) {
	var states []touchState
	for _, c := range body.List {
		var cls []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			cls = c.Body
		case *ast.CommClause:
			cls = c.Body
		}
		cs, term := ff.stmts(cls, st)
		if !term {
			states = append(states, cs)
		}
	}
	if !exhaustive {
		states = append(states, st) // no clause may match
	}
	if len(states) == 0 {
		return st, len(body.List) > 0
	}
	out := states[0]
	for _, s := range states[1:] {
		out = join(out, s)
	}
	return out, false
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}
