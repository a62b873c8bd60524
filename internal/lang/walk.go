package lang

// Node is a node of the syntax tree: a Stmt or an Expr.
type Node any

// Inspect traverses the tree rooted at n in depth-first pre-order: it calls
// f(n); if f returns false the node's children are skipped, otherwise each
// non-nil child is inspected in turn. An absent child (no else, no for
// init, cond or post, no initializer or return value) is not visited, and
// Inspect(nil, f) calls nothing. Children are visited in evaluation order:
//
//	Block      the statements
//	VarDecl    Init
//	Assign     RHS, LHS
//	If         Cond, Then, Else
//	While      Cond, Body
//	For        Init, Cond, Body, Post
//	Return     E
//	ExprStmt   E
//	Arrow      X
//	Call       the arguments
//	Touch      E
//	Unary      X
//	Binary     L, R
//
// This is the one recursion over the syntax. A function that asks a
// question of every node (or every node outside nested loops: return false
// at a While or For) is an Inspect callback; a dataflow problem is a Flow
// for Fold (flow.go); a function whose answer depends on branch structure
// or needs post-order otherwise stays a hand-written fold
// (TestOneTraversal lists them).
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch n := n.(type) {
	case *Block:
		for _, s := range n.Stmts {
			Inspect(s, f)
		}
	case *VarDecl:
		Inspect(n.Init, f)
	case *Assign:
		Inspect(n.RHS, f)
		Inspect(n.LHS, f)
	case *If:
		Inspect(n.Cond, f)
		Inspect(n.Then, f)
		Inspect(n.Else, f)
	case *While:
		Inspect(n.Cond, f)
		Inspect(n.Body, f)
	case *For:
		Inspect(n.Init, f)
		Inspect(n.Cond, f)
		Inspect(n.Body, f)
		Inspect(n.Post, f)
	case *Return:
		Inspect(n.E, f)
	case *ExprStmt:
		Inspect(n.E, f)
	case *Arrow:
		Inspect(n.X, f)
	case *Call:
		for _, a := range n.Args {
			Inspect(a, f)
		}
	case *Touch:
		Inspect(n.E, f)
	case *Unary:
		Inspect(n.X, f)
	case *Binary:
		Inspect(n.L, f)
		Inspect(n.R, f)
	}
}

// ChainBase returns the variable at the base of an Arrow chain (p for p,
// p->a and p->a->b), or false when the chain is rooted at anything else.
func ChainBase(e Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *Arrow:
			e = x.X
		case *Ident:
			return x.Name, true
		default:
			return "", false
		}
	}
}

// PtrVars maps the pointer-typed parameters and locals of fn to the struct
// each points to (the subset has one flat namespace per function).
func PtrVars(fn *FuncDecl) map[string]string {
	te := map[string]string{}
	for _, p := range fn.Params {
		if p.Type.IsPtr() {
			te[p.Name] = p.Type.Struct
		}
	}
	Inspect(fn.Body, func(n Node) bool {
		if d, ok := n.(*VarDecl); ok && d.Type.IsPtr() {
			te[d.Name] = d.Type.Struct
		}
		return true
	})
	return te
}
