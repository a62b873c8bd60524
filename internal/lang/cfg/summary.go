package cfg

import "repro/internal/lang"

// This file holds the statement- and expression-level def/use/deref
// helpers. The dataflow lints in internal/core replay them statement by
// statement with positions attached.

// VarUse is one read of a variable.
type VarUse struct {
	Name string
	Pos  lang.Pos
}

// Deref is one pointer dereference: a maximal Arrow chain attributed to
// the local variable at its base, positioned at the arrow adjacent to the
// base (the access that actually touches the heap first).
type Deref struct {
	Base string
	Pos  lang.Pos
}

// StmtDefs returns the variables a statement assigns anywhere inside it:
// for a loop, everything its body may assign (the kill set of a nested
// loop in internal/core's update matrices).
func StmtDefs(s lang.Stmt) []string {
	var out []string
	lang.Inspect(s, func(n lang.Node) bool {
		switch n := n.(type) {
		case *lang.VarDecl:
			out = append(out, n.Name)
		case *lang.Assign:
			if id, ok := n.LHS.(*lang.Ident); ok {
				out = append(out, id.Name)
			}
		}
		return true
	})
	return out
}

// StmtReads returns the variable reads of a statement in evaluation order.
// Assigning to a variable does not read it; storing through a field path
// (p->f = …) reads the base pointer. For a compound statement it returns
// every read inside it.
func StmtReads(s lang.Stmt) []VarUse { return reads(s) }

// reads is StmtReads and ExprReads over either kind of node.
func reads(root lang.Node) []VarUse {
	var out []VarUse
	var target *lang.Ident // what the Assign being visited writes: not a read
	lang.Inspect(root, func(n lang.Node) bool {
		switch n := n.(type) {
		case *lang.Assign:
			target, _ = n.LHS.(*lang.Ident)
		case *lang.Ident:
			if n != target {
				out = append(out, VarUse{Name: n.Name, Pos: n.Pos})
			}
		}
		return true
	})
	return out
}

// StmtDerefs returns the pointer dereferences of a statement in evaluation
// order (including inside compound statements): one Deref per maximal Arrow
// chain rooted at a variable, plus any chains nested in call arguments or
// subexpressions.
func StmtDerefs(s lang.Stmt) []Deref { return derefs(s) }

// derefs is StmtDerefs and ExprDerefs over either kind of node. A chain's
// one Deref is its innermost Arrow, the only one whose operand is the
// variable.
func derefs(root lang.Node) []Deref {
	var out []Deref
	lang.Inspect(root, func(n lang.Node) bool {
		if a, ok := n.(*lang.Arrow); ok {
			if id, ok := a.X.(*lang.Ident); ok {
				out = append(out, Deref{Base: id.Name, Pos: a.Pos})
			}
		}
		return true
	})
	return out
}

// ExprReads returns the variable reads of an expression in evaluation
// order. Dereferencing a pointer reads its base variable.
func ExprReads(e lang.Expr) []VarUse { return reads(e) }

// ExprDerefs returns the pointer dereferences of an expression, as
// StmtDerefs does for a statement.
func ExprDerefs(e lang.Expr) []Deref { return derefs(e) }
