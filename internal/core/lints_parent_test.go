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

// flowCodes are the codes of the four generic flow lints (unreachable,
// use-before-init, dead-store, nil-deref) that were deleted after
// lints_parent.golden was written.
var flowCodes = []string{"[unreachable]", "[use-before-init]", "[dead-store]", "[nil-deref]"}

// TestLintsMatchParent holds every lint to what the parent's basic-block
// CFG and worklist solver reported: testdata/lints_parent.golden was
// written by the parent commit and is never regenerated from the code
// under test. This tree must render exactly that file with the deleted
// flow lints' lines removed: none added, none changed.
func TestLintsMatchParent(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "lints_parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.SplitAfter(string(data), "\n") {
		if !slices.ContainsFunc(flowCodes, func(c string) bool { return strings.HasSuffix(l, c+"\n") }) {
			want = append(want, l)
		}
	}
	got := strings.SplitAfter(lintReports(t), "\n")
	for i, l := range want {
		if i >= len(got) || got[i] != l {
			g := "(nothing)"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("line %d: parent said %q; this tree says %q", i+1, l, g)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("this tree renders %d lines, the parent %d", len(got), len(want))
	}
}
