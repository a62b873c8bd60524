package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/effects"
	"repro/internal/bench"
	"repro/internal/lang"
	"repro/internal/lang/cfg"
)

// summaryLines renders, for every function of every mini-C source in the
// tree (the ten benchmark kernels and examples/minic/*.c) and every
// top-level statement of its body, what the exported statement walkers say:
// cfg.StmtDefs sorted (its consumers use it as a kill set), cfg.StmtReads
// and cfg.StmtDerefs in the order they return (their doc comments promise
// evaluation order), and effects.ContainsLoop.
func summaryLines(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	add := func(source, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		for _, fn := range prog.Funcs {
			for i, st := range fn.Body.Stmts {
				defs := cfg.StmtDefs(st)
				sort.Strings(defs)
				var reads, derefs []string
				for _, u := range cfg.StmtReads(st) {
					reads = append(reads, fmt.Sprintf("%s@%s", u.Name, u.Pos))
				}
				for _, d := range cfg.StmtDerefs(st) {
					derefs = append(derefs, fmt.Sprintf("%s@%s", d.Base, d.Pos))
				}
				fmt.Fprintf(&sb, "%s %s #%d@%s defs=%v reads=%v derefs=%v loop=%t\n",
					source, fn.Name, i, lang.StmtPos(st), defs, reads, derefs, effects.ContainsLoop(st))
			}
		}
	}
	for _, name := range bench.Names() {
		info, _ := bench.Get(name)
		add("bench:"+name, info.Source)
	}
	files, err := filepath.Glob("examples/minic/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples/minic sources: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add(f, string(data))
	}
	return sb.String()
}

// TestSummariesMatchParent holds the statement walkers to what their
// hand-written bodies said before lang.Inspect replaced them:
// testdata/summaries_parent.golden was written by the parent commit's
// walkers and is never regenerated from the code under test. The unexported
// walkers are pinned through their consumers (the lint, analyze and phases
// goldens).
func TestSummariesMatchParent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "summaries_parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := summaryLines(t)
	if got == string(want) {
		return
	}
	gl := strings.Split(got, "\n")
	for i, line := range strings.Split(string(want), "\n") {
		if i >= len(gl) || gl[i] != line {
			g := "(nothing)"
			if i < len(gl) {
				g = gl[i]
			}
			t.Fatalf("line %d: parent said\n  %s\nthis tree says\n  %s", i+1, line, g)
		}
	}
	t.Fatalf("this tree says %d lines, the parent %d", len(gl), strings.Count(string(want), "\n")+1)
}
