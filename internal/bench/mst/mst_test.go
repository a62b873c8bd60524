package mst

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lang"
)

// run executes the registered benchmark, whose Run Register derives from
// its Phased split.
func run(cfg bench.Config) bench.Result {
	info, _ := bench.Get("mst")
	return info.Run(cfg)
}

func TestCorrectness(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		res := run(bench.Config{Procs: procs, Scale: 8})
		if !res.Verified() {
			t.Fatalf("P=%d: weight %d != %d", procs, res.Check, res.WantCheck)
		}
	}
}

func TestMigrationsGrowWithP(t *testing.T) {
	// The paper: "the number of migrations is O(NP)" — per phase, one
	// round trip per processor.
	m4 := run(bench.Config{Procs: 4, Scale: 8}).Stats.Migrations
	m8 := run(bench.Config{Procs: 8, Scale: 8}).Stats.Migrations
	if m8 < m4*3/2 {
		t.Errorf("migrations %d at P=4 vs %d at P=8; want ≈2×", m4, m8)
	}
}

func TestSpeedupPoorAndFlattening(t *testing.T) {
	base := run(bench.Config{Baseline: true, Scale: 2})
	var sp []float64
	for _, p := range []int{1, 4, 16} {
		res := run(bench.Config{Procs: p, Scale: 2})
		sp = append(sp, float64(base.Cycles)/float64(res.Cycles))
	}
	if sp[0] < 0.8 {
		t.Errorf("1-processor speedup %.2f; want near 1 (0.96 in the paper)", sp[0])
	}
	if sp[1] < 1.4 {
		t.Errorf("P=4 speedup %.2f; MST should still gain a little", sp[1])
	}
	// The hallmark: efficiency collapses as P grows.
	if eff := sp[2] / 16; eff > 0.5 {
		t.Errorf("P=16 efficiency %.2f; MST should scale poorly", eff)
	}
}

func TestHeuristicChoice(t *testing.T) {
	prog, err := lang.Parse(KernelSource)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Analyze(prog, core.DefaultParams())
	scan := r.FindLoop("BlueRule/while")
	if scan == nil {
		t.Fatal("scan loop not found")
	}
	if scan.Mech != core.ChooseMigrate || scan.Var != "l" {
		t.Fatalf("scan loop = %s %s; the annotated affinity makes it migrate", scan.Mech, scan.Var)
	}
	if !r.UsesMigrationOnly() {
		t.Fatal("MST is an M benchmark (Table 2)")
	}
}

func TestDeterministic(t *testing.T) {
	a := run(bench.Config{Procs: 4, Scale: 8})
	b := run(bench.Config{Procs: 4, Scale: 8})
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Fatal("runs must be deterministic")
	}
}
