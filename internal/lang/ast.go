// Package lang implements the front end for the restricted C subset Olden
// accepts (paper §2): struct declarations whose pointer fields may carry
// path-affinity annotations (§4.1), functions over heap pointers, loops and
// recursion, and futurecall/touch annotations. The abstract syntax feeds
// the update-matrix dataflow and the mechanism-selection heuristic in
// internal/core.
//
// Analyses read the tree through one traversal, Inspect (walk.go):
// pre-order, children in evaluation order, false prunes. A question asked
// of every node is an Inspect callback; only a fold whose answer depends on
// branch structure or on its children's results recurses by hand, and
// TestOneTraversal lists those.
package lang

import "fmt"

// Pos is a source position for diagnostics.
type Pos struct {
	Line, Col int
}

// String formats the position.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// TypeKind enumerates the subset's types.
type TypeKind int

const (
	// TypeInt is a machine integer.
	TypeInt TypeKind = iota
	// TypeFloat is a double-precision float.
	TypeFloat
	// TypeVoid is the absent return type.
	TypeVoid
	// TypePtr is a pointer to a named struct (all pointers point into
	// the distributed heap).
	TypePtr
)

// Type is a type in the subset.
type Type struct {
	Kind   TypeKind
	Struct string // referenced struct name when Kind == TypePtr
}

// String renders the type in C syntax.
func (t Type) String() string {
	switch t.Kind {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeVoid:
		return "void"
	case TypePtr:
		return "struct " + t.Struct + " *"
	}
	return "?"
}

// IsPtr reports whether the type is a heap pointer.
func (t Type) IsPtr() bool { return t.Kind == TypePtr }

// Program is a parsed translation unit.
type Program struct {
	Structs []*StructDecl
	Funcs   []*FuncDecl
}

// Struct finds a struct declaration by name.
func (p *Program) Struct(name string) *StructDecl {
	for _, s := range p.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Func finds a function by name.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// StructDecl is a struct declaration.
type StructDecl struct {
	Pos    Pos
	Name   string
	Fields []*FieldDecl
}

// Field finds a field by name.
func (s *StructDecl) Field(name string) *FieldDecl {
	for _, f := range s.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FieldDecl is one struct field. Pointer fields may carry a path-affinity
// hint: the probability (in percent) that following the field stays on the
// same processor. Affinity is -1 when the program gave no hint (the
// heuristic then applies its default of 70%).
type FieldDecl struct {
	Pos      Pos
	Name     string
	Type     Type
	Affinity int
}

// Param is a function parameter.
type Param struct {
	Pos  Pos
	Name string
	Type Type
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Ret    Type
	Params []*Param
	Body   *Block
}

// Stmt is a statement.
type Stmt interface{ stmt() }

// Block is a brace-delimited statement list.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

// VarDecl declares (and optionally initializes) a local variable.
type VarDecl struct {
	Pos  Pos
	Name string
	Type Type
	Init Expr // may be nil
}

// Assign is an assignment to a variable or a field path.
type Assign struct {
	Pos Pos
	LHS Expr // Ident or Arrow chain
	RHS Expr
}

// If is a conditional with optional else.
type If struct {
	Pos  Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is a while loop — a control loop for the analysis.
type While struct {
	Pos  Pos
	Cond Expr
	Body Stmt
}

// For is a for loop — also a control loop.
type For struct {
	Pos  Pos
	Init Stmt // may be nil
	Cond Expr // may be nil
	Post Stmt // may be nil
	Body Stmt
}

// Return exits the enclosing function.
type Return struct {
	Pos Pos
	E   Expr // may be nil
}

// ExprStmt evaluates an expression for effect (typically a call).
type ExprStmt struct {
	Pos Pos
	E   Expr
}

func (*Block) stmt()    {}
func (*VarDecl) stmt()  {}
func (*Assign) stmt()   {}
func (*If) stmt()       {}
func (*While) stmt()    {}
func (*For) stmt()      {}
func (*Return) stmt()   {}
func (*ExprStmt) stmt() {}

// Expr is an expression.
type Expr interface{ expr() }

// Ident is a variable reference.
type Ident struct {
	Pos  Pos
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	Pos Pos
	V   int64
}

// FloatLit is a floating literal.
type FloatLit struct {
	Pos Pos
	V   float64
}

// Null is the NULL pointer literal.
type Null struct{ Pos Pos }

// Arrow is a pointer field selection x->f.
type Arrow struct {
	Pos   Pos
	X     Expr
	Field string
}

// Call is a function call; Future marks a futurecall annotation.
type Call struct {
	Pos    Pos
	Name   string
	Args   []Expr
	Future bool
}

// Touch is the future-synchronization annotation touch(e).
type Touch struct {
	Pos Pos
	E   Expr
}

// Binary is a binary operation (arithmetic, comparison, logical).
type Binary struct {
	Pos  Pos
	Op   string
	L, R Expr
}

// Unary is a unary operation (!, -).
type Unary struct {
	Pos Pos
	Op  string
	X   Expr
}

func (*Ident) expr()    {}
func (*IntLit) expr()   {}
func (*FloatLit) expr() {}
func (*Null) expr()     {}
func (*Arrow) expr()    {}
func (*Call) expr()     {}
func (*Touch) expr()    {}
func (*Binary) expr()   {}
func (*Unary) expr()    {}

// StmtPos returns the source position of a statement.
func StmtPos(s Stmt) Pos {
	switch s := s.(type) {
	case *Block:
		return s.Pos
	case *VarDecl:
		return s.Pos
	case *Assign:
		return s.Pos
	case *If:
		return s.Pos
	case *While:
		return s.Pos
	case *For:
		return s.Pos
	case *Return:
		return s.Pos
	case *ExprStmt:
		return s.Pos
	}
	return Pos{}
}

// ExprPos returns the source position of an expression.
func ExprPos(e Expr) Pos {
	switch e := e.(type) {
	case *Ident:
		return e.Pos
	case *IntLit:
		return e.Pos
	case *FloatLit:
		return e.Pos
	case *Null:
		return e.Pos
	case *Arrow:
		return e.Pos
	case *Call:
		return e.Pos
	case *Touch:
		return e.Pos
	case *Binary:
		return e.Pos
	case *Unary:
		return e.Pos
	}
	return Pos{}
}
