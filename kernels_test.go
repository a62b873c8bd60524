package repro_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/olden"
)

// benchKernels returns the mini-C kernel of every benchmark.
func benchKernels() map[string]string {
	kernels := map[string]string{}
	for _, name := range bench.Names() {
		info, _ := bench.Get(name)
		kernels[name] = info.Source
	}
	return kernels
}

// TestKernelsLintClean keeps the ten benchmark kernels clean under the
// full lint suite (`oldenc -lint -bench <name>` reports nothing). The one
// sanctioned exception is barneshut's bottleneck-demotion warning: the
// second heuristic pass really does demote the cell walk inside the
// parallel force loop (§4.3), and the lint exists precisely to surface
// that silent decision — suppressing it would defeat the check.
func TestKernelsLintClean(t *testing.T) {
	allowed := map[string]map[string]bool{
		"barneshut": {"bottleneck-demotion": true},
	}
	for name, src := range benchKernels() {
		rep, err := olden.Analyze(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range rep.Lint() {
			if allowed[name][d.Code] {
				continue
			}
			t.Errorf("%s kernel: unexpected lint diagnostic %s", name, d)
		}
	}
}

// TestTablesRender smoke-tests the two generators that are not rendered
// from run records. (Tables 2 and 3 and the curves are checked number by
// number against the deleted text tables' golden in internal/bench.)
func TestTablesRender(t *testing.T) {
	if out := bench.Table1(); len(out) == 0 {
		t.Fatal("table 1 empty")
	}
	if out := bench.Figure2(256, 4); len(out) == 0 {
		t.Fatal("figure 2 empty")
	}
}

// TestCurveRenders smoke-tests the per-benchmark curve end to end: suite,
// collection, renderer.
func TestCurveRenders(t *testing.T) {
	procs := []int{1, 2}
	suite := bench.CurveSuite(procs, 1024, olden.LocalKnowledge)
	f, err := bench.CollectRecords("treeadd", suite)
	if err != nil {
		t.Fatal(err)
	}
	if out := record.CurveMarkdown(f, procs, "local"); !strings.Contains(out, "| 2 |") {
		t.Fatalf("curve has no P=2 row:\n%s", out)
	}
	if _, err := bench.CollectRecords("nope", suite); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}
