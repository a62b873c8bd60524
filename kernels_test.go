package repro_test

import (
	"testing"

	"repro/internal/bench"
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

// TestHeuristicMatchesTable2 is the whole-suite integration check: the
// compile-time heuristic's M vs M+C classification of every benchmark
// kernel must match Table 2's "Heuristic choice" column.
func TestHeuristicMatchesTable2(t *testing.T) {
	for name, src := range benchKernels() {
		info, ok := bench.Get(name)
		if !ok {
			t.Fatalf("benchmark %q not registered", name)
		}
		rep, err := olden.Analyze(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantM := info.Choice == "M"
		if got := rep.UsesMigrationOnly(); got != wantM {
			t.Errorf("%s: heuristic M-only=%v, Table 2 says %s", name, got, info.Choice)
		}
	}
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

// TestAllBenchmarksVerifyAt32 exercises the paper's full machine size once
// per benchmark at a small problem scale.
func TestAllBenchmarksVerifyAt32(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range bench.Names() {
		info, _ := bench.Get(name)
		res := info.Run(bench.Config{Procs: 32, Scale: 64})
		if !res.Verified() {
			t.Errorf("%s at P=32: checksum %#x != %#x", name, res.Check, res.WantCheck)
		}
	}
}

// TestTablesRender smoke-tests the table generators end to end at a tiny
// scale.
func TestTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := bench.Table2([]int{1, 4}, 64, olden.LocalKnowledge); err != nil {
		t.Fatalf("table 2: %v", err)
	}
	if _, err := bench.Table3(4, 64); err != nil {
		t.Fatalf("table 3: %v", err)
	}
	if out := bench.Table1(); len(out) == 0 {
		t.Fatal("table 1 empty")
	}
	if out := bench.Figure2(256, 4); len(out) == 0 {
		t.Fatal("figure 2 empty")
	}
}

// TestCurveRenders smoke-tests the per-benchmark curve generator.
func TestCurveRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := bench.Curve("treeadd", []int{1, 4}, 64, olden.LocalKnowledge)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("empty curve")
	}
	if _, err := bench.Curve("nope", []int{1}, 64, olden.LocalKnowledge); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}
