package em3d

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rt"
)

// run executes the registered benchmark, whose Run Register derives from
// its Phased split.
func run(cfg bench.Config) bench.Result {
	info, _ := bench.Get("em3d")
	return info.Run(cfg)
}

func TestCorrectness(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		res := run(bench.Config{Procs: procs, Scale: 8})
		if !res.Verified() {
			t.Fatalf("P=%d: checksum %#x != %#x", procs, res.Check, res.WantCheck)
		}
	}
}

func TestCorrectnessAllSchemes(t *testing.T) {
	for _, scheme := range []coherence.Kind{coherence.LocalKnowledge, coherence.GlobalKnowledge, coherence.Bilateral} {
		res := run(bench.Config{Procs: 4, Scale: 8, Scheme: scheme})
		if !res.Verified() {
			t.Fatalf("%v: checksum mismatch", scheme)
		}
	}
}

func TestUsesBothMechanisms(t *testing.T) {
	res := run(bench.Config{Procs: 8, Scale: 8})
	if res.Stats.Migrations == 0 {
		t.Error("em3d must migrate along the node lists")
	}
	if res.Stats.CacheableReads == 0 || res.Stats.Misses == 0 {
		t.Error("em3d must cache the cross edges")
	}
}

func TestMigrateOnlyIsMuchWorse(t *testing.T) {
	// Table 2: EM3D speedup 12.0 with the heuristic vs 0.05 with
	// migrate-only at 32 processors — chasing every low-locality edge
	// with a migration is catastrophic.
	h := run(bench.Config{Procs: 8, Scale: 8})
	m := run(bench.Config{Procs: 8, Scale: 8, Mode: rt.MigrateOnly})
	if !m.Verified() {
		t.Fatal("migrate-only run must still be correct")
	}
	if float64(m.Cycles) < 3*float64(h.Cycles) {
		t.Errorf("migrate-only %d vs heuristic %d; expected ≫", m.Cycles, h.Cycles)
	}
}

func TestSpeedupShape(t *testing.T) {
	base := run(bench.Config{Baseline: true, Scale: 2})
	sp4 := float64(base.Cycles) / float64(run(bench.Config{Procs: 4, Scale: 2}).Cycles)
	sp8 := float64(base.Cycles) / float64(run(bench.Config{Procs: 8, Scale: 2}).Cycles)
	if sp4 < 1.5 {
		t.Errorf("speedup at P=4 = %.2f; want > 1.5", sp4)
	}
	if sp8 < sp4 {
		t.Errorf("speedup not growing: %.2f at 4, %.2f at 8", sp4, sp8)
	}
}

func TestHeuristicChoice(t *testing.T) {
	prog, err := lang.Parse(KernelSource)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Analyze(prog, core.DefaultParams())
	l := r.FindLoop("all_compute/while")
	if l == nil {
		t.Fatal("node loop not found")
	}
	if !l.Parallel || l.Mech != core.ChooseMigrate || l.Var != "l" {
		t.Fatalf("node loop choice = %s %s parallel=%v; want migrate l (parallelizable)",
			l.Mech, l.Var, l.Parallel)
	}
	if r.UsesMigrationOnly() {
		t.Fatal("em3d is an M+C benchmark")
	}
}

func TestDeterministic(t *testing.T) {
	a := run(bench.Config{Procs: 4, Scale: 8})
	b := run(bench.Config{Procs: 4, Scale: 8})
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Fatal("runs must be deterministic")
	}
}
