package core

import (
	"fmt"

	"repro/internal/lang"
)

// LoopKind distinguishes the two flavours of control loop (§4.2: "loops and
// recursive calls, hereafter referred to as control loops").
type LoopKind int

const (
	// SyntacticLoop is a while or for loop.
	SyntacticLoop LoopKind = iota
	// RecursionLoop is the control loop formed by a function's recursive
	// calls.
	RecursionLoop
)

// Mechanism is the compile-time choice for a dereference.
type Mechanism int

const (
	// ChooseMigrate selects computation migration.
	ChooseMigrate Mechanism = iota
	// ChooseCache selects software caching.
	ChooseCache
)

// String names the mechanism.
func (m Mechanism) String() string {
	if m == ChooseMigrate {
		return "migrate"
	}
	return "cache"
}

// Loop is one control loop in the report tree. Call-expanded nodes
// (a callee's loop appearing inside a caller's loop) carry the argument
// binding used by the bottleneck pass.
type Loop struct {
	Kind     LoopKind
	Fn       *lang.FuncDecl
	Label    string
	Pos      lang.Pos // loop keyword (syntactic) or function (recursion)
	Parent   *Loop
	Children []*Loop

	Matrix   Matrix
	Parallel bool

	// Selection results (pass 1 + pass 2).
	Var        string    // the variable the loop's choice applies to
	Mech       Mechanism // mechanism for Var's dereferences
	Affinity   float64   // the winning update affinity (0 when inherited)
	Inherited  bool      // no induction variable: inherited parent's
	Bottleneck bool      // demoted to caching by the bottleneck pass
	// DemotedByContext marks an original loop some call instance of
	// which was demoted by the bottleneck pass: the compiled site must
	// take the conservative (caching) choice.
	DemotedByContext bool

	// origin points from a call instance back to the loop it clones.
	origin *Loop

	// ArgBase maps the callee's parameters to the base variable of the
	// argument expression at the call site (call-expanded nodes only).
	ArgBase map[string]string

	// bodyStmt is the loop body (syntactic loops only); the recursion
	// loop's "body" is the whole function body.
	bodyStmt lang.Stmt
}

// Body returns the statements the control loop repeats: the loop body for
// a syntactic loop, the whole function body for a recursion loop. Clients
// outside the package (the effects analysis re-deriving traversal shape
// per loop) need the body without re-walking the source for it.
func (l *Loop) Body() lang.Stmt {
	if l.Kind == SyntacticLoop {
		return l.bodyStmt
	}
	return l.Fn.Body
}

// containsFuture reports whether a statement subtree contains a
// futurecall outside any nested syntactic loop (nested loops are their own
// control loops).
func containsFuture(s lang.Stmt) bool {
	found := false
	lang.Inspect(s, func(n lang.Node) bool {
		switch n := n.(type) {
		case *lang.While, *lang.For:
			return false
		case *lang.Call:
			found = found || n.Future
		}
		return !found
	})
	return found
}

// IsRecursive reports whether f calls itself, i.e. whether it has a
// recursion control loop.
func IsRecursive(f *lang.FuncDecl) bool {
	found := false
	lang.Inspect(f.Body, func(n lang.Node) bool {
		if c, ok := n.(*lang.Call); ok && c.Name == f.Name {
			found = true
		}
		return !found
	})
	return found
}

// buildFuncLoops builds the control-loop tree of one function: an optional
// recursion loop at the root, syntactic loops nested per the source.
func (a *analysis) buildFuncLoops() []*Loop {
	var top []*Loop
	var rec *Loop
	if IsRecursive(a.fn) {
		rec = &Loop{
			Kind:     RecursionLoop,
			Fn:       a.fn,
			Label:    a.fn.Name + "/rec",
			Pos:      a.fn.Pos,
			Matrix:   a.recursionMatrix(),
			Parallel: containsFuture(a.fn.Body),
		}
		top = append(top, rec)
	}
	var walk func(s lang.Stmt, parent *Loop)
	attach := func(l *Loop, parent *Loop) {
		l.Parent = parent
		if parent != nil {
			parent.Children = append(parent.Children, l)
		} else {
			top = append(top, l)
		}
	}
	walk = func(s lang.Stmt, parent *Loop) {
		switch s := s.(type) {
		case *lang.Block:
			for _, st := range s.Stmts {
				walk(st, parent)
			}
		case *lang.If:
			walk(s.Then, parent)
			if s.Else != nil {
				walk(s.Else, parent)
			}
		case *lang.While:
			l := &Loop{
				Kind:     SyntacticLoop,
				Fn:       a.fn,
				Label:    fmt.Sprintf("%s/while@%s", a.fn.Name, s.Pos),
				Pos:      s.Pos,
				Matrix:   a.loopMatrix(s.Body, nil),
				Parallel: containsFuture(s.Body),
				bodyStmt: s.Body,
			}
			attach(l, parent)
			walk(s.Body, l)
		case *lang.For:
			l := &Loop{
				Kind:     SyntacticLoop,
				Fn:       a.fn,
				Label:    fmt.Sprintf("%s/for@%s", a.fn.Name, s.Pos),
				Pos:      s.Pos,
				Matrix:   a.loopMatrix(s.Body, s.Post),
				Parallel: containsFuture(s.Body),
				bodyStmt: s.Body,
			}
			attach(l, parent)
			walk(s.Body, l)
		}
	}
	walk(a.fn.Body, rec)
	return top
}
