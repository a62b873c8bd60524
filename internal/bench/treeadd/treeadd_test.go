package treeadd

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
	info, _ := bench.Get("treeadd")
	return info.Run(cfg)
}

func TestCorrectness(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		res := run(bench.Config{Procs: procs, Scale: 256})
		if !res.Verified() {
			t.Fatalf("P=%d: sum %d != %d", procs, res.Check, res.WantCheck)
		}
	}
}

func TestBaselineVerifies(t *testing.T) {
	res := run(bench.Config{Baseline: true, Scale: 256})
	if !res.Verified() {
		t.Fatalf("baseline sum %d != %d", res.Check, res.WantCheck)
	}
	if res.Stats.Futures != 0 {
		t.Fatal("baseline must not use futures")
	}
}

func TestSpeedupShape(t *testing.T) {
	base := run(bench.Config{Baseline: true, Scale: 64})
	prev := 0.0
	for _, procs := range []int{1, 2, 4, 8} {
		res := run(bench.Config{Procs: procs, Scale: 64})
		sp := float64(base.Cycles) / float64(res.Cycles)
		if procs == 1 && (sp < 0.5 || sp > 1.0) {
			t.Errorf("1-processor speedup %.2f; Olden overhead should land in (0.5,1.0)", sp)
		}
		if sp < prev {
			t.Errorf("speedup not monotone: %.2f at P=%d after %.2f", sp, procs, prev)
		}
		prev = sp
	}
	if prev < 4 {
		t.Errorf("speedup at P=8 = %.2f; TreeAdd should scale well", prev)
	}
}

func TestMigrationOnlyMatchesHeuristic(t *testing.T) {
	// TreeAdd is an "M" benchmark: forcing migrate-only must not change
	// the choice the heuristic already made, so cycles are identical.
	h := run(bench.Config{Procs: 4, Scale: 256})
	m := run(bench.Config{Procs: 4, Scale: 256, Mode: rt.MigrateOnly})
	if h.Cycles != m.Cycles {
		t.Fatalf("heuristic %d vs migrate-only %d; must match for an M benchmark", h.Cycles, m.Cycles)
	}
}

func TestHeuristicChoosesMigration(t *testing.T) {
	prog, err := lang.Parse(KernelSource)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Analyze(prog, core.DefaultParams())
	l := r.FindLoop("TreeAdd/rec")
	if l == nil {
		t.Fatal("recursion loop not found")
	}
	if l.Mech != core.ChooseMigrate || l.Var != "t" {
		t.Fatalf("heuristic chose %s %s; the paper's Table 2 says M", l.Mech, l.Var)
	}
	if !r.UsesMigrationOnly() {
		t.Fatal("TreeAdd must be migration-only")
	}
}

func TestDeterministic(t *testing.T) {
	a := run(bench.Config{Procs: 4, Scale: 256})
	b := run(bench.Config{Procs: 4, Scale: 256})
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Fatal("runs must be deterministic")
	}
}
