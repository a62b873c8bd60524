package bisort

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rt"
)

// run executes the registered benchmark, whose Run Register derives from
// its Phased split.
func run(cfg bench.Config) bench.Result {
	info, _ := bench.Get("bisort")
	return info.Run(cfg)
}

func TestCorrectness(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		res := run(bench.Config{Procs: procs, Scale: 256})
		if !res.Verified() {
			t.Fatalf("P=%d: checksum %#x != %#x", procs, res.Check, res.WantCheck)
		}
	}
}

func TestSpeedupModest(t *testing.T) {
	// Table 2: Bisort reaches only 6.33 at 32 processors; speedups grow
	// but stay well below linear.
	base := run(bench.Config{Baseline: true, Scale: 32})
	sp2 := float64(base.Cycles) / float64(run(bench.Config{Procs: 2, Scale: 32}).Cycles)
	sp8 := float64(base.Cycles) / float64(run(bench.Config{Procs: 8, Scale: 32}).Cycles)
	if sp2 < 1.0 {
		t.Errorf("P=2 speedup %.2f; want ≥ 1 (paper: 1.35)", sp2)
	}
	if sp8 < sp2 {
		t.Errorf("speedup shrank: %.2f → %.2f", sp2, sp8)
	}
	if sp8 > 7 {
		t.Errorf("P=8 speedup %.2f; Bisort should be well below linear", sp8)
	}
}

func TestMigrateOnlyClose(t *testing.T) {
	// Table 2: heuristic 6.33 vs migrate-only 6.13 at 32 — close.
	h := run(bench.Config{Procs: 8, Scale: 64})
	m := run(bench.Config{Procs: 8, Scale: 64, Mode: rt.MigrateOnly})
	if !m.Verified() {
		t.Fatal("migrate-only must verify")
	}
	ratio := float64(m.Cycles) / float64(h.Cycles)
	if ratio < 0.5 || ratio > 3 {
		t.Errorf("migrate-only/heuristic cycle ratio %.2f; the paper reports them close", ratio)
	}
}

func TestHeuristicChoice(t *testing.T) {
	prog, err := lang.Parse(KernelSource)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Analyze(prog, core.DefaultParams())
	rec := r.FindLoop("BiMerge/rec")
	if rec == nil || rec.Mech != core.ChooseMigrate || rec.Var != "root" {
		t.Fatal("merge recursion must migrate root")
	}
	search := r.FindLoop("BiMerge/while")
	if search == nil {
		t.Fatal("search loop not found")
	}
	if search.Mech != core.ChooseCache {
		t.Fatalf("search loop = %s %s; tree searches cache", search.Mech, search.Var)
	}
	if r.UsesMigrationOnly() {
		t.Fatal("bisort is an M+C benchmark")
	}
}

func TestDeterministic(t *testing.T) {
	a := run(bench.Config{Procs: 4, Scale: 256})
	b := run(bench.Config{Procs: 4, Scale: 256})
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Fatal("runs must be deterministic")
	}
}
