package voronoi

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
	info, _ := bench.Get("voronoi")
	return info.Run(cfg)
}

func TestCorrectness(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		res := run(bench.Config{Procs: procs, Scale: 128})
		if !res.Verified() {
			t.Fatalf("P=%d: edge-set checksum %#x != %#x", procs, res.Check, res.WantCheck)
		}
	}
}

func TestCorrectnessAllSchemes(t *testing.T) {
	for _, scheme := range []coherence.Kind{coherence.LocalKnowledge, coherence.GlobalKnowledge, coherence.Bilateral} {
		res := run(bench.Config{Procs: 4, Scale: 128, Scheme: scheme})
		if !res.Verified() {
			t.Fatalf("%v: checksum mismatch", scheme)
		}
	}
}

func TestSpeedupShape(t *testing.T) {
	base := run(bench.Config{Baseline: true, Scale: 32})
	sp1 := float64(base.Cycles) / float64(run(bench.Config{Procs: 1, Scale: 32}).Cycles)
	sp8 := float64(base.Cycles) / float64(run(bench.Config{Procs: 8, Scale: 32}).Cycles)
	if sp1 < 0.6 {
		t.Errorf("1-processor speedup %.2f (paper: 0.75)", sp1)
	}
	if sp8 < 1.8 {
		t.Errorf("P=8 speedup %.2f (paper: 4.23)", sp8)
	}
}

func TestMigrateOnlyCollapses(t *testing.T) {
	// Table 2: 8.76 heuristic vs 0.47 migrate-only at 32 — the merge
	// walk ping-pongs between the two sub-diagrams under migration.
	h := run(bench.Config{Procs: 8, Scale: 64})
	m := run(bench.Config{Procs: 8, Scale: 64, Mode: rt.MigrateOnly})
	if !m.Verified() {
		t.Fatal("migrate-only must verify")
	}
	if float64(m.Cycles) < 2*float64(h.Cycles) {
		t.Errorf("migrate-only %d vs heuristic %d; expected collapse", m.Cycles, h.Cycles)
	}
}

func TestHeuristicChoice(t *testing.T) {
	prog, err := lang.Parse(KernelSource)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Analyze(prog, core.DefaultParams())
	rec := r.FindLoop("delaunay/rec")
	if rec == nil || rec.Mech != core.ChooseMigrate || rec.Var != "t" {
		t.Fatal("point-tree recursion must migrate t")
	}
	mrg := r.FindLoop("merge/while")
	if mrg == nil || mrg.Mech != core.ChooseCache {
		t.Fatal("merge hull walk must cache")
	}
	if r.UsesMigrationOnly() {
		t.Fatal("voronoi is an M+C benchmark")
	}
}

func TestDeterministic(t *testing.T) {
	a := run(bench.Config{Procs: 4, Scale: 128})
	b := run(bench.Config{Procs: 4, Scale: 128})
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Fatal("runs must be deterministic")
	}
}
