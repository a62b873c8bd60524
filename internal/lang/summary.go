package lang

// This file holds the statement- and expression-level def/use helpers:
// the kill sets of internal/core's update matrices and the termination
// check in internal/analysis/effects read them.

// VarUse is one read of a variable.
type VarUse struct {
	Name string
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
