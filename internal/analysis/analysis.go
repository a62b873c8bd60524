package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Finding is one contract violation, anchored to a source position.
// Severity is optional ("warning" or "error"); the heap-escape check,
// every finding of which is a violation, leaves it empty.
type Finding struct {
	Check    string `json:"check"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Severity string `json:"severity,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Check)
}

// Run applies the heap-escape check to every package and returns the
// findings sorted by position.
func Run(pkgs []*Package) []Finding {
	var all []Finding
	for _, p := range pkgs {
		all = append(all, checkHeapEscape(p)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return all
}

func (p *Package) finding(check string, pos token.Pos, format string, args ...any) Finding {
	ps := p.Fset.Position(pos)
	return Finding{
		Check:   check,
		File:    ps.Filename,
		Line:    ps.Line,
		Col:     ps.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// mod returns the module path the runtime packages live under,
// defaulting to "repro" if the loader could not determine one.
func (p *Package) mod() string {
	if p.Mod != "" {
		return p.Mod
	}
	return "repro"
}

// unitPath is the unit's import path with the external-test suffix
// stripped, for allowlist matching.
func (p *Package) unitPath() string {
	return strings.TrimSuffix(p.Path, "_test")
}

// calleeFunc resolves a call expression to the function object it
// invokes, looking through explicit generic instantiations.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// namedFrom reports whether t is (a pointer to) the named type
// pkgSuffix.name, where pkgSuffix is relative to the module root.
// Type identity is by package path and name, not pointer identity,
// because each typechecked unit has its own object graph.
func (p *Package) namedFrom(t types.Type, pkgSuffix, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil &&
		obj.Pkg().Path() == p.mod()+"/"+pkgSuffix
}
