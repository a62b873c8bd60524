package perimeter

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
	info, _ := bench.Get("perimeter")
	return info.Run(cfg)
}

func TestCorrectness(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		res := run(bench.Config{Procs: procs, Scale: 256})
		if !res.Verified() {
			t.Fatalf("P=%d: perimeter %d != %d", procs, res.Check, res.WantCheck)
		}
	}
}

func TestSpeedupShape(t *testing.T) {
	base := run(bench.Config{Baseline: true, Scale: 64})
	sp1 := float64(base.Cycles) / float64(run(bench.Config{Procs: 1, Scale: 64}).Cycles)
	sp8 := float64(base.Cycles) / float64(run(bench.Config{Procs: 8, Scale: 64}).Cycles)
	if sp1 < 0.6 {
		t.Errorf("1-processor speedup %.2f (paper: 0.86)", sp1)
	}
	if sp8 < 2.5 {
		t.Errorf("P=8 speedup %.2f (paper: 6.09)", sp8)
	}
}

func TestMigrateOnlyMuchWorse(t *testing.T) {
	// Table 2: 14.1 heuristic vs 2.96 migrate-only at 32 — neighbor
	// chasing by migration bounces across the tree.
	h := run(bench.Config{Procs: 8, Scale: 64})
	m := run(bench.Config{Procs: 8, Scale: 64, Mode: rt.MigrateOnly})
	if !m.Verified() {
		t.Fatal("migrate-only must verify")
	}
	if float64(m.Cycles) < 1.5*float64(h.Cycles) {
		t.Errorf("migrate-only %d vs heuristic %d; expected clearly worse", m.Cycles, h.Cycles)
	}
}

func TestHeuristicChoice(t *testing.T) {
	prog, err := lang.Parse(KernelSource)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Analyze(prog, core.DefaultParams())
	rec := r.FindLoop("perimeter/rec")
	if rec == nil || rec.Mech != core.ChooseMigrate || rec.Var != "t" {
		t.Fatal("quadrant recursion must migrate t")
	}
	nbr := r.FindLoop("gtequal_adj_neighbor/rec")
	if nbr == nil {
		t.Fatal("neighbor recursion not found")
	}
	if nbr.Mech != core.ChooseCache {
		t.Fatalf("neighbor recursion = %s %s; the low-affinity parent hint makes it cache", nbr.Mech, nbr.Var)
	}
	if r.UsesMigrationOnly() {
		t.Fatal("perimeter is an M+C benchmark")
	}
}

func TestDeterministic(t *testing.T) {
	a := run(bench.Config{Procs: 4, Scale: 256})
	b := run(bench.Config{Procs: 4, Scale: 256})
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Fatal("runs must be deterministic")
	}
}
