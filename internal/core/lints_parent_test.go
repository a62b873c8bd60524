package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// lintReports renders Report.Lint() for miniCSources and matrixPrograms
// seeded programs from randUninitProgram, one "== name" section each.
func lintReports(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	add := func(name, src string) {
		fmt.Fprintf(&sb, "== %s\n%s", name, LintString(Analyze(parseSource(t, name, src), DefaultParams()).Lint()))
	}
	miniCSources(t, add)
	for seed := int64(0); seed < matrixPrograms; seed++ {
		add(fmt.Sprintf("randUninitProgram(%d)", seed), randUninitProgram(seed))
	}
	return sb.String()
}

// lintSections splits lintReports' rendering into section -> lines.
func lintSections(s string) (order []string, lines map[string][]string) {
	lines = map[string][]string{}
	cur := ""
	for _, l := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		if name, ok := strings.CutPrefix(l, "== "); ok {
			cur = name
			order = append(order, cur)
			continue
		}
		lines[cur] = append(lines[cur], l)
	}
	return order, lines
}

// lintAdded lists the diagnostics this tree adds to lints_parent.golden:
// each is dead code that a path reaches straight from a return, a pruned
// branch or an endless loop, which the parent's CFG missed because that
// path ran through an empty block into a loop head or a join.
var lintAdded = map[string][]string{
	"randLoopProgram(1)":     {"20:3: warning: statement can never execute [unreachable]"},
	"randLoopProgram(26)":    {"25:7: warning: statement can never execute [unreachable]"},
	"randLoopProgram(40)":    {"24:5: warning: statement can never execute [unreachable]"},
	"randLoopProgram(46)":    {"11:5: warning: statement can never execute [unreachable]"},
	"randLoopProgram(67)":    {"15:5: warning: statement can never execute [unreachable]"},
	"randLoopProgram(68)":    {"34:7: warning: statement can never execute [unreachable]"},
	"randLoopProgram(106)":   {"15:3: warning: statement can never execute [unreachable]"},
	"randLoopProgram(127)":   {"11:5: warning: statement can never execute [unreachable]"},
	"randLoopProgram(131)":   {"20:7: warning: statement can never execute [unreachable]"},
	"randLoopProgram(137)":   {"29:5: warning: statement can never execute [unreachable]"},
	"randLoopProgram(184)":   {"16:7: warning: statement can never execute [unreachable]"},
	"randUninitProgram(1)":   {"20:3: warning: statement can never execute [unreachable]"},
	"randUninitProgram(21)":  {"17:29: warning: statement can never execute [unreachable]"},
	"randUninitProgram(26)":  {"25:7: warning: statement can never execute [unreachable]"},
	"randUninitProgram(40)":  {"24:5: warning: statement can never execute [unreachable]"},
	"randUninitProgram(46)":  {"11:5: warning: statement can never execute [unreachable]"},
	"randUninitProgram(67)":  {"15:5: warning: statement can never execute [unreachable]"},
	"randUninitProgram(68)":  {"26:5: warning: statement can never execute [unreachable]"},
	"randUninitProgram(77)":  {"23:7: warning: statement can never execute [unreachable]"},
	"randUninitProgram(106)": {"15:3: warning: statement can never execute [unreachable]"},
	"randUninitProgram(127)": {"11:5: warning: statement can never execute [unreachable]"},
	"randUninitProgram(184)": {"16:7: warning: statement can never execute [unreachable]"},
}

// TestLintsMatchParent holds every lint to what the parent's basic-block
// CFG and worklist solver reported before lang.Fold replaced them:
// testdata/lints_parent.golden was written by the parent commit and is
// never regenerated from the code under test. Only lintAdded's lines may
// be new, and nothing may go.
func TestLintsMatchParent(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "lints_parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wantOrder, want := lintSections(string(data))
	gotOrder, got := lintSections(lintReports(t))
	if !slices.Equal(gotOrder, wantOrder) {
		t.Fatalf("this tree renders %d sources, the parent %d", len(gotOrder), len(wantOrder))
	}
	for _, name := range wantOrder {
		rest := slices.Clone(got[name])
		for _, l := range want[name] {
			i := slices.Index(rest, l)
			if i < 0 {
				t.Errorf("%s: parent said %q; this tree does not", name, l)
				continue
			}
			rest = slices.Delete(rest, i, i+1)
		}
		if !slices.Equal(rest, lintAdded[name]) {
			t.Errorf("%s: this tree adds %q, lintAdded says %q", name, rest, lintAdded[name])
		}
	}
}
