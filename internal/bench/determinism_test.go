package bench_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/trace"

	_ "repro/internal/bench/all"
)

// schemes enumerates the three coherence schemes of Appendix A by the
// names the CLI uses.
var schemes = []struct {
	name string
	kind coherence.Kind
}{
	{"local", coherence.LocalKnowledge},
	{"global", coherence.GlobalKnowledge},
	{"bilateral", coherence.Bilateral},
}

// tracedRun executes one benchmark with the recorder attached and returns
// the trace digest alongside the result.
func tracedRun(t *testing.T, name string, procs int, kind coherence.Kind) (trace.Digest, bench.Result) {
	t.Helper()
	info, ok := bench.Get(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	rec := trace.New(0)
	res := info.Run(bench.Config{Procs: procs, Scheme: kind, Trace: rec})
	if !res.Verified() {
		t.Fatalf("%s failed verification: %#x != %#x", name, res.Check, res.WantCheck)
	}
	return rec.Digest(), res
}

// TestDeterministicReplay runs treeadd and em3d twice at P=4 under each
// coherence scheme and requires byte-identical trace digests and
// statistics. Any divergence means the simulation picked up a real-time
// dependence — goroutine scheduling, map iteration order — that the
// virtual-time scheduler is supposed to exclude.
func TestDeterministicReplay(t *testing.T) {
	for _, name := range []string{"treeadd", "em3d"} {
		for _, s := range schemes {
			t.Run(name+"/"+s.name, func(t *testing.T) {
				d1, r1 := tracedRun(t, name, 4, s.kind)
				d2, r2 := tracedRun(t, name, 4, s.kind)
				if d1 != d2 {
					t.Errorf("trace digest diverged between identical runs:\n  run 1: %s\n  run 2: %s", d1, d2)
				}
				if r1.Stats != r2.Stats {
					t.Errorf("statistics diverged between identical runs:\n  run 1: %+v\n  run 2: %+v", r1.Stats, r2.Stats)
				}
				if r1.Cycles != r2.Cycles {
					t.Errorf("makespan diverged: %d vs %d cycles", r1.Cycles, r2.Cycles)
				}
				if r1.Check != r2.Check {
					t.Errorf("checksum diverged: %#x vs %#x", r1.Check, r2.Check)
				}
			})
		}
	}
}
