package tsp

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lang"
)

// run executes the registered benchmark, whose Run Register derives from
// its Phased split.
func run(cfg bench.Config) bench.Result {
	info, _ := bench.Get("tsp")
	return info.Run(cfg)
}

// TestTourIsValid checks the reference algorithm produces a hamiltonian
// circuit visiting each city exactly once.
func TestTourIsValid(t *testing.T) {
	for _, n := range []int{15, 63, 255, 1023} {
		pts := genPoints(n)
		root := buildTree(pts, 0)
		rep := refTSP(root, n, conquerSize)
		seen := map[int]bool{}
		count := 0
		p := rep
		for {
			if seen[p.id] {
				t.Fatalf("n=%d: city %d visited twice", n, p.id)
			}
			seen[p.id] = true
			count++
			if p.next.prev != p {
				t.Fatalf("n=%d: broken doubly-linked tour at %d", n, p.id)
			}
			p = p.next
			if p == rep {
				break
			}
		}
		if count != n {
			t.Fatalf("n=%d: tour has %d cities", n, count)
		}
	}
}

// TestTourQuality sanity-checks the heuristic tour against the BHH
// asymptotic estimate ~0.7124*sqrt(n) for uniform points in the unit
// square: a sane heuristic lands within 2x.
func TestTourQuality(t *testing.T) {
	const n = 1023
	pts := genPoints(n)
	root := buildTree(pts, 0)
	rep := refTSP(root, n, conquerSize)
	var length float64
	p := rep
	for {
		length += dist(p, p.next)
		p = p.next
		if p == rep {
			break
		}
	}
	est := 0.7124 * math.Sqrt(float64(n))
	if length > 2*est || length < est/2 {
		t.Fatalf("tour length %.2f; expected within 2x of %.2f", length, est)
	}
}

func TestCorrectness(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		res := run(bench.Config{Procs: procs, Scale: 64})
		if !res.Verified() {
			t.Fatalf("P=%d: checksum %#x != %#x", procs, res.Check, res.WantCheck)
		}
	}
}

func TestSpeedupGoodButSublinear(t *testing.T) {
	base := run(bench.Config{Baseline: true, Scale: 16})
	sp1 := float64(base.Cycles) / float64(run(bench.Config{Procs: 1, Scale: 16}).Cycles)
	sp8 := float64(base.Cycles) / float64(run(bench.Config{Procs: 8, Scale: 16}).Cycles)
	if sp1 < 0.8 {
		t.Errorf("1-processor speedup %.2f (paper: 0.95)", sp1)
	}
	if sp8 < 3 {
		t.Errorf("P=8 speedup %.2f (paper: 6.70)", sp8)
	}
	if sp8 > 7.8 {
		t.Errorf("P=8 speedup %.2f; merges should keep TSP below linear", sp8)
	}
}

func TestHeuristicChoice(t *testing.T) {
	prog, err := lang.Parse(KernelSource)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Analyze(prog, core.DefaultParams())
	rec := r.FindLoop("tsp/rec")
	if rec == nil || rec.Mech != core.ChooseMigrate || rec.Var != "t" {
		t.Fatal("tsp recursion must migrate t")
	}
	mrg := r.FindLoop("merge/while")
	if mrg == nil || mrg.Mech != core.ChooseMigrate || mrg.Var != "p" {
		t.Fatal("merge walk must migrate p (annotated tour affinity 95)")
	}
	if !r.UsesMigrationOnly() {
		t.Fatal("TSP is an M benchmark (Table 2)")
	}
}

func TestDeterministic(t *testing.T) {
	a := run(bench.Config{Procs: 4, Scale: 64})
	b := run(bench.Config{Procs: 4, Scale: 64})
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Fatal("runs must be deterministic")
	}
}
