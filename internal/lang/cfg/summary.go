package cfg

import "repro/internal/lang"

// This file computes per-block access summaries and the statement- and
// expression-level def/use/deref helpers they are built from. The helpers
// are exported because the dataflow lints in internal/core replay them
// statement by statement with positions attached.

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

// Summary aggregates one block's variable accesses.
type Summary struct {
	// Defs are the variables the block assigns (including everything
	// assigned inside opaque nested loops in body-mode graphs).
	Defs map[string]bool
	// Uses are the upward-exposed reads: variables read before any
	// definition inside the block.
	Uses map[string]bool
	// Derefs are the pointer dereferences in the block, in source order.
	Derefs []Deref
}

// Summaries computes the per-block access summaries, indexed by block ID.
func (g *Graph) Summaries() []*Summary {
	out := make([]*Summary, len(g.Blocks))
	for i, b := range g.Blocks {
		s := &Summary{Defs: map[string]bool{}, Uses: map[string]bool{}}
		for _, st := range b.Stmts {
			for _, u := range StmtReads(st) {
				if !s.Defs[u.Name] {
					s.Uses[u.Name] = true
				}
			}
			s.Derefs = append(s.Derefs, StmtDerefs(st)...)
			for _, d := range StmtDefs(st) {
				s.Defs[d] = true
			}
		}
		if b.Cond != nil {
			for _, u := range ExprReads(b.Cond) {
				if !s.Defs[u.Name] {
					s.Uses[u.Name] = true
				}
			}
			s.Derefs = append(s.Derefs, ExprDerefs(b.Cond)...)
		}
		out[i] = s
	}
	return out
}

// StmtDefs returns the variables a straight-line statement assigns. For
// opaque nested loops (body-mode graphs) it returns everything assigned
// anywhere inside the loop, matching the enclosing analysis's kill set.
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

// StmtReads returns the variable reads of a straight-line statement in
// evaluation order. Assigning to a variable does not read it; storing
// through a field path (p->f = …) reads the base pointer. For opaque
// nested loops it conservatively returns every read inside the loop.
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

// StmtDerefs returns the pointer dereferences of a straight-line
// statement in evaluation order (including inside opaque nested loops):
// one Deref per maximal Arrow chain rooted at a variable, plus any chains
// nested in call arguments or subexpressions.
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
