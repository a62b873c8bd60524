package effects

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	_ "repro/internal/bench/all"
	"repro/internal/core"
	"repro/internal/lang"
)

// treeSources calls add with every mini-C source in the tree: the ten
// benchmark kernels, examples/minic/*.c, and every string literal in this
// package's and phases' test files that parses as a program with at least
// one function (effectsSeeds included). A literal is named after the
// top-level declaration holding it, "#k" appended from the second one on.
func treeSources(t *testing.T, add func(source, src string)) {
	t.Helper()
	for _, name := range bench.Names() {
		info, _ := bench.Get(name)
		add("bench:"+name, info.Source)
	}
	files, err := filepath.Glob("../../../examples/minic/*.c")
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
	for _, f := range []string{"effects_test.go", "fuzz_test.go", "../phases/phases_test.go"} {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		inDecl := func(name string, n ast.Node) {
			k := 0
			ast.Inspect(n, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				if prog, err := lang.Parse(src); err != nil || len(prog.Funcs) == 0 {
					return true
				}
				source := filepath.Base(f) + ":" + name
				if k++; k > 1 {
					source += "#" + strconv.Itoa(k)
				}
				add(source, src)
				return true
			})
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				inDecl(d.Name.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						inDecl(vs.Names[0].Name, vs)
					}
				}
			}
		}
	}
}

// summaryLines analyzes treeSources and renders one line per function:
// "<source> <fn> " and what line says about its summary.
func summaryLines(t *testing.T, line func(*Summary) string) []string {
	t.Helper()
	var lines []string
	treeSources(t, func(source, src string) {
		res, err := AnalyzeSource(src, core.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		for _, s := range res.Summaries {
			lines = append(lines, source+" "+s.Name+" "+line(s))
		}
	})
	return lines
}

// verdictLines renders the two cost bits: "returns=<bool> allocs=<bool>".
func verdictLines(t *testing.T) []string {
	return summaryLines(t, func(s *Summary) string {
		return fmt.Sprintf("returns=%t allocs=%t", s.Returns, s.Allocs)
	})
}

// verdictChanges lists the lines of verdicts_parent.golden this tree does
// not reproduce verbatim, each with what it reads now ("" when its source
// left the tree). Everything else must come out as the parent had it.
var verdictChanges = map[string]string{
	// Counted loops whose only obstacle was a start value the analysis
	// could not see: they count up by one to a literal limit and return
	// from any start. The parent's ⊤ said "no number", not "may not
	// return". The test is renamed after what it asserts now.
	"examples/minic/hostile.c creep returns=false allocs=false":                     "examples/minic/hostile.c creep returns=true allocs=false",
	"effects_test.go:TestInductionNeedsKnownStart creep returns=false allocs=false": "effects_test.go:TestUnknownStartStillReturns creep returns=true allocs=false",
	// A constant product that overflowed int64 saturated to ⊤: three
	// counted loops return however large their product. Renamed likewise.
	"effects_test.go:TestNestedLoopOverflowSaturates burn returns=false allocs=false": "effects_test.go:TestHugeNestedLoopsReturn burn returns=true allocs=false",
	// TestCountedLoopBounds asserted the BSym/BConst classes and went with
	// them; effectsSeeds' counted-loops program keeps both shapes under the pin.
	"effects_test.go:TestCountedLoopBounds count returns=true allocs=false": "",
	"effects_test.go:TestCountedLoopBounds fixed returns=true allocs=false": "",
	// The heuristic differential and the findings slice went, and their
	// tests with them. effectsSeeds' rewire keeps the aliased-write walk,
	// TestFreshAllocationsStayPure keeps mk and TestFigure3ListWalk the
	// derived-pointer walk; the fresh-write walk moved into effectsSeeds.
	"effects_test.go:TestAliasedWriteDiff f returns=true allocs=false":           "",
	"effects_test.go:TestDerivedFromDiff g returns=true allocs=false":            "",
	"effects_test.go:TestFindingsDeterministicOrder f returns=true allocs=false": "",
	"effects_test.go:TestFindingsDeterministicOrder mk returns=true allocs=true": "",
	"effects_test.go:TestFreshWriteRaisesNoDiff f returns=true allocs=true":      "fuzz_test.go:effectsSeeds#8 f returns=true allocs=true",
}

// TestVerdictsMatchParent holds the two summary bits to what the parent's
// symbolic bounds said about every source in the tree:
// testdata/verdicts_parent.golden was written by the parent commit's
// analysis (returns = !Steps.IsTop(), allocs = Allocs is not the constant
// 0) and is never regenerated from the code under test.
func TestVerdictsMatchParent(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "verdicts_parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, l := range verdictLines(t) {
		got[l] = true
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		want := line
		if now, ok := verdictChanges[line]; ok {
			seen[line] = true
			if want = now; want == "" {
				continue
			}
		}
		if !got[want] {
			t.Errorf("parent said %q; this tree does not say %q", line, want)
		}
	}
	for line := range verdictChanges {
		if !seen[line] {
			t.Errorf("verdictChanges names a line the golden does not have: %s", line)
		}
	}
}

// TestEffectsMatchParent holds every function's effect summary to what
// the parent's basic-block CFG and worklist solver computed before
// lang.Fold replaced them: testdata/effects_parent.golden was written by
// the parent commit from the same treeSources and is never regenerated
// from the code under test. No line may differ.
func TestEffectsMatchParent(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "effects_parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := summaryLines(t, (*Summary).EffectsLine)
	for i, w := range want {
		if i >= len(got) || got[i] != w {
			t.Fatalf("line %d: parent said\n  %s\nthis tree says\n  %s", i+1, w, strings.Join(got[i:min(i+1, len(got))], ""))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("this tree says %d lines, the parent %d", len(got), len(want))
	}
}
