package lang

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// nodeLabel renders a node as Kind@line:col.
func nodeLabel(n Node) string {
	kind := strings.TrimPrefix(fmt.Sprintf("%T", n), "*lang.")
	if s, ok := n.(Stmt); ok {
		return kind + "@" + StmtPos(s).String()
	}
	return kind + "@" + ExprPos(n.(Expr)).String()
}

// visits returns the labels of the nodes Inspect hands f, in order; f
// prunes at every node whose kind is in prune.
func visits(root Node, prune ...string) []string {
	var out []string
	Inspect(root, func(n Node) bool {
		label := nodeLabel(n)
		out = append(out, label)
		for _, k := range prune {
			if strings.HasPrefix(label, k+"@") {
				return false
			}
		}
		return true
	})
	return out
}

func parseBody(t *testing.T, src string) *Block {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Funcs[0].Body
}

// The documented child order, node by node: an assignment's right-hand
// side before its target, a for loop's init, cond, body, post.
func TestInspectOrder(t *testing.T) {
	cases := []struct {
		name, src string
		want      []string
	}{
		{
			"assign evaluates its right-hand side first",
			"void f(struct s *p, struct s *q) {\n p->a->b = g(q->c, 1);\n}",
			[]string{
				"Block@1:34", "Assign@2:2",
				"Call@2:12", "Arrow@2:15", "Ident@2:14", "IntLit@2:20",
				"Arrow@2:6", "Arrow@2:3", "Ident@2:2",
			},
		},
		{
			"for is init, cond, body, post",
			"void f(int n) {\n for (i = 0; i < n; i = i + 1) { n = 2; }\n}",
			[]string{
				"Block@1:15", "For@2:2",
				"Assign@2:7", "IntLit@2:11", "Ident@2:7",
				"Binary@2:16", "Ident@2:14", "Ident@2:18",
				"Block@2:32", "Assign@2:34", "IntLit@2:38", "Ident@2:34",
				"Assign@2:21", "Binary@2:27", "Ident@2:25", "IntLit@2:29", "Ident@2:21",
			},
		},
		{
			"if is cond, then, else; while is cond, body; declarations and returns carry their expression",
			"int f(struct s *p) {\n int x = -1;\n if (!p) return x; else while (p) touch(p);\n return 0.5;\n}",
			[]string{
				"Block@1:20",
				"VarDecl@2:2", "Unary@2:10", "IntLit@2:11",
				"If@3:2", "Unary@3:6", "Ident@3:7",
				"Return@3:10", "Ident@3:17",
				"While@3:25", "Ident@3:32", "ExprStmt@3:35", "Touch@3:35", "Ident@3:41",
				"Return@4:2", "FloatLit@4:9",
			},
		},
		{
			"absent children are not visited",
			"void f() {\n int x;\n if (NULL) return;\n for (;;) { }\n}",
			[]string{
				"Block@1:10", "VarDecl@2:2", "If@3:2", "Null@3:6", "Return@3:12",
				"For@4:2", "Block@4:11",
			},
		},
	}
	for _, c := range cases {
		if got := visits(parseBody(t, c.src)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %v\nwant %v", c.name, got, c.want)
		}
	}
}

func TestInspectPrunes(t *testing.T) {
	body := parseBody(t, "void f(struct s *p) {\n while (p) p = p->next;\n g(p);\n}")
	want := []string{"Block@1:21", "While@2:2", "ExprStmt@3:2", "Call@3:2", "Ident@3:4"}
	if got := visits(body, "While"); !reflect.DeepEqual(got, want) {
		t.Errorf("false at the While:\n got %v\nwant %v", got, want)
	}
	if got := visits(body, "Block"); !reflect.DeepEqual(got, []string{"Block@1:21"}) {
		t.Errorf("false at the root visited %v", got)
	}
}

func TestInspectNil(t *testing.T) {
	called := false
	f := func(Node) bool { called = true; return true }
	Inspect(nil, f)
	Inspect(Stmt(nil), f)
	Inspect(Expr(nil), f)
	if called {
		t.Error("Inspect called f for a nil node")
	}
}

func TestChainBase(t *testing.T) {
	p := &Ident{Name: "p"}
	cases := []struct {
		e    Expr
		base string
		ok   bool
	}{
		{p, "p", true},
		{&Arrow{X: &Arrow{X: p, Field: "a"}, Field: "b"}, "p", true},
		{&Arrow{X: &Call{Name: "f", Args: []Expr{&Ident{Name: "x"}}}, Field: "a"}, "", false},
		{&IntLit{V: 1}, "", false},
	}
	for _, c := range cases {
		if base, ok := ChainBase(c.e); base != c.base || ok != c.ok {
			t.Errorf("ChainBase(%s) = %q, %v; want %q, %v", nodeLabel(c.e), base, ok, c.base, c.ok)
		}
	}
}

func TestPtrVars(t *testing.T) {
	prog, err := Parse("void f(struct a *p, int n) {\n struct b *q;\n int k;\n while (n) { struct c *r = NULL; }\n}")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"p": "a", "q": "b", "r": "c"}
	if got := PtrVars(prog.Funcs[0]); !reflect.DeepEqual(got, want) {
		t.Errorf("PtrVars = %v; want %v", got, want)
	}
}

// handFolds are the functions outside walk.go that keep their own recursion
// over statements, each because its answer is not a property of the set of
// nodes: it depends on which branch a node sits in or on what its children
// returned. Everything else asks its question through Inspect.
var handFolds = map[string]string{
	"internal/lang.StmtPos":                  "reads one field per node kind; it does not traverse",
	"internal/lang.stmt":                     "Fold's control structure: arms join, loops iterate to a fixpoint, a return ends its path",
	"internal/core.buildFuncLoops":           "builds the loop tree: a loop's children hang off the node made for it",
	"internal/core.recCalls":                 "threads an environment in statement order and merges per-branch updates; seqCombine is floating-point, so the order is part of the answer",
	"internal/core.seqStmt":                  "threads an environment through a loop iteration or up to a return; arms join, and an arm that returns drops out of the merge",
	"internal/analysis/effects.stmtBits":     "folds children's results: a loop's bits come from loopBits, not from its nodes",
	"internal/analysis/effects.advanceOf":    "an if advances only when both arms do; a nested loop never guarantees",
	"internal/analysis/effects.stepInterval": "sums intervals along a block, takes min/max across an if",
}

// TestOneTraversal keeps the statement/expression recursion in one place:
// a non-test function under internal/ or cmd/ whose type switch has cases
// for both *lang.Block and *lang.If is a second copy of Inspect unless it is
// one of the handFolds.
func TestOneTraversal(t *testing.T) {
	root := filepath.Join("..", "..")
	found := map[string]bool{}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			rel, _ := filepath.Rel(root, path)
			rel = filepath.ToSlash(rel)
			if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || rel == "internal/lang/walk.go" {
				return nil
			}
			file, err := goparser.ParseFile(gotoken.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !switchesOnBlockAndIf(fd.Body, file.Name.Name == "lang") {
					continue
				}
				key := filepath.ToSlash(filepath.Dir(rel)) + "." + fd.Name.Name
				found[key] = true
				if _, ok := handFolds[key]; !ok {
					t.Errorf("%s: %s has its own recursion over statements (a type switch on *lang.Block and *lang.If); use lang.Inspect, or add it to handFolds with the reason its answer needs the structure",
						rel, fd.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for key := range handFolds {
		if !found[key] {
			t.Errorf("handFolds lists %s, which no longer switches on statements", key)
		}
	}
}

// switchesOnBlockAndIf reports whether body contains a type switch with
// cases for both *lang.Block and *lang.If (*Block and *If inside lang).
func switchesOnBlockAndIf(body *ast.BlockStmt, inLang bool) bool {
	hit := false
	ast.Inspect(body, func(n ast.Node) bool {
		sw, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		cases := map[string]bool{}
		for _, c := range sw.Body.List {
			for _, e := range c.(*ast.CaseClause).List {
				star, ok := e.(*ast.StarExpr)
				if !ok {
					continue
				}
				switch x := star.X.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "lang" {
						cases[x.Sel.Name] = true
					}
				case *ast.Ident:
					if inLang {
						cases[x.Name] = true
					}
				}
			}
		}
		hit = hit || cases["Block"] && cases["If"]
		return true
	})
	return hit
}
