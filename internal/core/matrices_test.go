package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	_ "repro/internal/bench/all"
	"repro/internal/lang"
)

// matrixPrograms is the number of seeded programs in the matrices golden.
const matrixPrograms = 200

// miniCSources calls add with every mini-C source the parent goldens
// cover: the ten benchmark kernels, examples/minic/*.c and matrixPrograms
// seeded programs from randLoopProgram.
func miniCSources(t *testing.T, add func(name, src string)) {
	t.Helper()
	for _, name := range bench.Names() {
		info, _ := bench.Get(name)
		add("bench:"+name, info.Source)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "minic", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples/minic sources: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add("examples/minic/"+filepath.Base(f), string(data))
	}
	for seed := int64(0); seed < matrixPrograms; seed++ {
		add(fmt.Sprintf("randLoopProgram(%d)", seed), randLoopProgram(seed))
	}
}

// parseSource parses one of miniCSources' programs.
func parseSource(t *testing.T, name, src string) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, src)
	}
	return prog
}

// matrixReports renders Report.String() — every control loop's update
// matrix and choice — for miniCSources under the default parameters.
func matrixReports(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	miniCSources(t, func(name, src string) {
		fmt.Fprintf(&sb, "== %s\n%s", name, Analyze(parseSource(t, name, src), DefaultParams()).String())
	})
	return sb.String()
}

// parentMatrices reads testdata/matrices_parent.golden without its
// "== <name> interprocedural" sections: the parent also rendered, where it
// differed, each program under the return-value path extension, which is
// deleted.
func parentMatrices(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "matrices_parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	keep := true
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, "== ") {
			keep = !strings.HasSuffix(line, " interprocedural\n")
		}
		if keep {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// TestMatricesMatchParent holds every control loop's update matrix to what
// the loop-body CFG and dataflow solver computed before the structural fold
// replaced them: testdata/matrices_parent.golden was written by the parent
// commit and is never regenerated from the code under test.
func TestMatricesMatchParent(t *testing.T) {
	want := parentMatrices(t)
	got := matrixReports(t)
	if got == want {
		return
	}
	gl := strings.Split(got, "\n")
	section := ""
	for i, line := range strings.Split(want, "\n") {
		if strings.HasPrefix(line, "== ") {
			section = line
		}
		if i >= len(gl) || gl[i] != line {
			g := "(nothing)"
			if i < len(gl) {
				g = gl[i]
			}
			t.Fatalf("%s, line %d: parent said\n  %s\nthis tree says\n  %s", section, i+1, line, g)
		}
	}
	t.Fatalf("this tree says %d lines, the parent %d", len(gl), strings.Count(want, "\n")+1)
}

// loopGen writes one random program for randLoopProgram.
type loopGen struct {
	r      *rand.Rand
	sb     strings.Builder
	vars   []string // pointer variables in scope
	fn     string   // the function being written
	locals int
	uninit bool // some declarations have no initializer (randUninitProgram)
}

func (g *loopGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

func (g *loopGen) ptrVar() string { return g.vars[g.r.Intn(len(g.vars))] }

func (g *loopGen) field() string { return g.pick("a", "b", "c") }

// ptrExpr is a pointer value: a variable, a field path of one, an accessor
// call, NULL or a touched future.
func (g *loopGen) ptrExpr() string {
	switch g.r.Intn(10) {
	case 0, 1:
		return g.ptrVar()
	case 2, 3, 4:
		return g.ptrVar() + "->" + g.field()
	case 5:
		return g.ptrVar() + "->" + g.field() + "->" + g.field()
	case 6, 7:
		return fmt.Sprintf("h%d(%s, %s)", g.r.Intn(2), g.pick(g.ptrVar(), g.ptrVar()+"->"+g.field()), g.ptrVar())
	case 8:
		return "NULL"
	default:
		return fmt.Sprintf("touch(futurecall(h%d(%s, %s)))", g.r.Intn(2), g.ptrVar(), g.ptrVar())
	}
}

func (g *loopGen) cond() string {
	switch g.r.Intn(6) {
	case 0:
		return g.pick("0", "1", "!0", "!1")
	case 1, 2:
		return g.ptrVar() + " != NULL"
	case 3:
		return g.ptrVar()
	case 4:
		return "k"
	default:
		return g.ptrVar() + "->v"
	}
}

// block writes a braced statement list at the given nesting depth.
func (g *loopGen) block(depth int, ind string) {
	g.sb.WriteString("{\n")
	n := 1 + g.r.Intn(3)
	for i := 0; i < n; i++ {
		g.stmt(depth, ind+"  ")
	}
	g.sb.WriteString(ind + "}")
}

func (g *loopGen) stmt(depth int, ind string) {
	w := func(format string, args ...any) { fmt.Fprintf(&g.sb, ind+format, args...) }
	k := g.r.Intn(20)
	if depth <= 0 && k >= 8 && k < 14 {
		k = 0 // no compound statements at the depth limit
	}
	switch k {
	case 0, 1, 2, 3, 4:
		w("%s = %s;\n", g.ptrVar(), g.ptrExpr())
	case 5:
		name := fmt.Sprintf("t%d", g.locals)
		g.locals++
		if g.uninit && g.r.Intn(2) == 0 {
			w("struct n *%s;\n", name)
		} else {
			w("struct n *%s = %s;\n", name, g.ptrExpr())
		}
		g.vars = append(g.vars, name)
	case 6:
		w("%s->%s = %s;\n", g.ptrVar(), g.field(), g.ptrExpr())
	case 7:
		w("%s\n", g.pick("k = k - 1;", "g(k);", "return;", "return;"))
	case 8, 9, 10:
		w("if (%s) ", g.cond())
		g.block(depth-1, ind)
		if g.r.Intn(2) == 0 {
			g.sb.WriteString(" else ")
			if g.r.Intn(3) == 0 {
				g.sb.WriteString("return;")
			} else {
				g.block(depth-1, ind)
			}
		}
		g.sb.WriteString("\n")
	case 11, 12, 13:
		g.loop(depth-1, ind)
	case 14:
		// A self call: the function's recursion loop.
		w("%s(%s, %s, k);\n", g.fn, g.ptrExpr(), g.ptrVar())
	default:
		w("%s = %s->%s;\n", g.ptrVar(), g.ptrVar(), g.field())
	}
}

func (g *loopGen) loop(depth int, ind string) {
	v := g.ptrVar()
	switch g.r.Intn(6) {
	case 0:
		fmt.Fprintf(&g.sb, "%swhile (%s) ", ind, g.cond())
	case 1:
		fmt.Fprintf(&g.sb, "%sfor (k = 0; k < 10; k = k + 1) ", ind)
	case 2:
		fmt.Fprintf(&g.sb, "%sfor (; %s; %s = %s->%s) ", ind, v, v, v, g.field())
	case 3:
		fmt.Fprintf(&g.sb, "%sfor (%s = %s; %s != NULL; %s = %s) ", ind, v, g.ptrExpr(), v, v, g.ptrExpr())
	case 4:
		fmt.Fprintf(&g.sb, "%s%s ", ind, g.pick("while (1)", "for (;;)", "while (0)"))
	default:
		fmt.Fprintf(&g.sb, "%swhile (%s != NULL) ", ind, v)
	}
	g.block(depth, ind)
	g.sb.WriteString("\n")
}

// helper writes accessor hI: returns that are field paths of one
// parameter (summarisable), of either parameter, through the other
// accessor, after a loop, or through its own recursion (not summarisable).
func (g *loopGen) helper(i int) {
	fmt.Fprintf(&g.sb, "struct n *h%d(struct n *x, struct n *y) ", i)
	switch g.r.Intn(8) {
	case 0:
		fmt.Fprintf(&g.sb, "{ return x->%s; }\n", g.field())
	case 1:
		fmt.Fprintf(&g.sb, "{ if (x == NULL) return NULL; return x->%s->%s; }\n", g.field(), g.field())
	case 2:
		fmt.Fprintf(&g.sb, "{ if (x->v) return x->%s; return x->%s; }\n", g.field(), g.field())
	case 3:
		fmt.Fprintf(&g.sb, "{ return %s; }\n", g.pick("x", "y", "y->a"))
	case 4:
		fmt.Fprintf(&g.sb, "{ if (x->v) return x; return y->%s; }\n", g.field())
	case 5:
		fmt.Fprintf(&g.sb, "{ return h%d(x->%s, y); }\n", 1-i, g.field())
	case 6:
		fmt.Fprintf(&g.sb, "{ struct n *t; t = x; while (t->v) { t = t->%s; } return t; }\n", g.field())
	default:
		fmt.Fprintf(&g.sb, "{ if (x == NULL) return x; return h%d(x->%s, y); }\n", i, g.field())
	}
}

// randLoopProgram writes a seeded mini-C program for the matrices golden:
// one struct with hinted and default-affinity fields, two accessors, and one
// or two functions whose loops mix pointer updates, calls inside updates,
// constant and variable conditions, returning arms and nested loops.
func randLoopProgram(seed int64) string {
	return (&loopGen{r: rand.New(rand.NewSource(seed))}).program()
}

// randUninitProgram is randLoopProgram with half the local declarations
// left uninitialized, so some pointers are read before any assignment.
func randUninitProgram(seed int64) string {
	return (&loopGen{r: rand.New(rand.NewSource(seed)), uninit: true}).program()
}

func (g *loopGen) program() string {
	g.sb.WriteString("struct n {\n  int v;\n")
	for _, f := range []string{"a", "b", "c"} {
		if g.r.Intn(3) == 0 {
			fmt.Fprintf(&g.sb, "  struct n *%s;\n", f)
		} else {
			fmt.Fprintf(&g.sb, "  struct n *%s __affinity(%s);\n", f, g.pick("50", "70", "80", "90", "95", "100"))
		}
	}
	g.sb.WriteString("};\n")
	g.helper(0)
	g.helper(1)
	for i := 1 + g.r.Intn(2); i > 0; i-- {
		g.fn, g.vars, g.locals = fmt.Sprintf("w%d", i), []string{"p", "q"}, 0
		fmt.Fprintf(&g.sb, "void %s(struct n *p, struct n *q, int k) {\n", g.fn)
		g.loop(2, "  ")
		if g.r.Intn(2) == 0 {
			g.stmt(2, "  ")
		}
		g.sb.WriteString("}\n")
	}
	return g.sb.String()
}
