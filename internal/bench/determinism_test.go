package bench_test

import (
	"testing"

	"repro/internal/coherence"
)

// schemes is the three coherence schemes of Appendix A; each prints as the
// CLI names it.
var schemes = coherence.Kinds()

// TestDeterministicReplay runs treeadd and em3d at P=4 under each
// coherence scheme a second time beside their shared (pinned) run and
// requires byte-identical trace digests and statistics. Any divergence
// means the simulation picked up a real-time dependence — goroutine
// scheduling, map iteration order — that the virtual-time scheduler is
// supposed to exclude.
func TestDeterministicReplay(t *testing.T) {
	for _, name := range []string{"treeadd", "em3d"} {
		for _, s := range schemes {
			t.Run(name+"/"+s.String(), func(t *testing.T) {
				cfg := pinConfig(s)
				r1 := shared(t, name, cfg)
				r2 := execute(name, cfg, nil)
				if r2.fault != "" || !r2.res.Verified() {
					t.Fatalf("%s failed verification: %#x != %#x %s", name, r2.res.Check, r2.res.WantCheck, r2.fault)
				}
				if d1, d2 := r1.rec.TraceDigest, r2.rec.TraceDigest; d1 != d2 {
					t.Errorf("trace digest diverged between identical runs:\n  run 1: %s\n  run 2: %s", d1, d2)
				}
				if r1.res.Stats != r2.res.Stats {
					t.Errorf("statistics diverged between identical runs:\n  run 1: %+v\n  run 2: %+v", r1.res.Stats, r2.res.Stats)
				}
				if r1.res.Cycles != r2.res.Cycles {
					t.Errorf("makespan diverged: %d vs %d cycles", r1.res.Cycles, r2.res.Cycles)
				}
				if r1.res.Check != r2.res.Check {
					t.Errorf("checksum diverged: %#x vs %#x", r1.res.Check, r2.res.Check)
				}
			})
		}
	}
}
