package bench_test

import (
	"testing"

	"repro/internal/bench"
)

// TestKernelContracts holds the ten kernels to the contracts a hand port
// keeps by convention (DESIGN.md §8), checked where the kernels run and
// against no golden, so that a mutant it kills breaks a contract and not a
// digest. It reads the battery's local P=4 runs; a run that panicked fails
// here with its panic:
//   - thread-capture: a Spawn body that uses its parent's thread syncs a
//     runnable scheduler entry, and LoopScheduler.Sync panics by name;
//   - site-hygiene: every site that ran is named "<bench>.<var>" and
//     counted apart (Runtime.SiteFaults is empty);
//   - future-discipline: every future is touched exactly once,
//     Stats.Touches == Stats.Futures.
func TestKernelContracts(t *testing.T) {
	for _, name := range batteryKernels {
		t.Run(name, func(t *testing.T) {
			r := shared(t, name, bench.Config{Procs: 4, Scale: batteryScale})
			for _, f := range r.faults {
				t.Errorf("%s: %s", name, f)
			}
			if s := r.res.Stats; s.Touches != s.Futures {
				t.Errorf("%s: %d touches of %d futures; a kernel touches each future exactly once", name, s.Touches, s.Futures)
			}
		})
	}
}
