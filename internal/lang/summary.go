package lang

// This file holds the statement- and expression-level def/use/deref
// helpers. The dataflow lints in internal/core replay them statement by
// statement with positions attached.

// VarUse is one read of a variable.
type VarUse struct {
	Name string
	Pos  Pos
}

// Deref is one pointer dereference: a maximal Arrow chain attributed to
// the local variable at its base, positioned at the arrow adjacent to the
// base (the access that actually touches the heap first).
type Deref struct {
	Base string
	Pos  Pos
}

// StmtDefs returns the variables a statement assigns anywhere inside it:
// for a loop, everything its body may assign (the kill set of a nested
// loop in internal/core's update matrices).
func StmtDefs(s Stmt) []string {
	var out []string
	Inspect(s, func(n Node) bool {
		switch n := n.(type) {
		case *VarDecl:
			out = append(out, n.Name)
		case *Assign:
			if id, ok := n.LHS.(*Ident); ok {
				out = append(out, id.Name)
			}
		}
		return true
	})
	return out
}

// Reads returns the variable reads of a statement or expression in
// evaluation order. Assigning to a variable does not read it; storing
// through a field path (p->f = …) reads the base pointer, as any
// dereference does. For a compound statement it returns every read inside
// it.
func Reads(root Node) []VarUse {
	var out []VarUse
	var target *Ident // what the Assign being visited writes: not a read
	Inspect(root, func(n Node) bool {
		switch n := n.(type) {
		case *Assign:
			target, _ = n.LHS.(*Ident)
		case *Ident:
			if n != target {
				out = append(out, VarUse{Name: n.Name, Pos: n.Pos})
			}
		}
		return true
	})
	return out
}

// Derefs returns the pointer dereferences of a statement or expression in
// evaluation order (including inside compound statements): one Deref per
// maximal Arrow chain rooted at a variable, plus any chains nested in call
// arguments or subexpressions. A chain's one Deref is its innermost Arrow,
// the only one whose operand is the variable.
func Derefs(root Node) []Deref {
	var out []Deref
	Inspect(root, func(n Node) bool {
		if a, ok := n.(*Arrow); ok {
			if id, ok := a.X.(*Ident); ok {
				out = append(out, Deref{Base: id.Name, Pos: a.Pos})
			}
		}
		return true
	})
	return out
}

// ConstCond evaluates a compile-time-constant branch condition: integer
// and float literals are their truth value, NULL is false, and ! of a
// constant negates. Everything else is not constant.
func ConstCond(e Expr) (val, ok bool) {
	switch e := e.(type) {
	case *IntLit:
		return e.V != 0, true
	case *FloatLit:
		return e.V != 0, true
	case *Null:
		return false, true
	case *Unary:
		if e.Op == "!" {
			if v, ok := ConstCond(e.X); ok {
				return !v, true
			}
		}
	}
	return false, false
}
