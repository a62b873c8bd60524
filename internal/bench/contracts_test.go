package bench_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/rt"
)

// TestKernelContracts holds the ten kernels to the contracts a hand port
// keeps by convention (DESIGN.md §8), checked where the kernels run and
// against no golden, so that a mutant it kills breaks a contract and not a
// digest:
//   - thread-capture: a Spawn body that uses its parent's thread syncs a
//     runnable scheduler entry, and LoopScheduler.Sync panics by name;
//   - site-hygiene: every site that ran is named "<bench>.<var>" and
//     counted apart (Runtime.SiteFaults is empty);
//   - future-discipline: every future is touched exactly once,
//     Stats.Touches == Stats.Futures.
func TestKernelContracts(t *testing.T) {
	for _, name := range batteryKernels {
		t.Run(name, func(t *testing.T) {
			info, ok := bench.Get(name)
			if !ok {
				t.Fatalf("benchmark %q not registered", name)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s: %v", name, p)
				}
			}()
			var rtm *rt.Runtime
			res := info.Run(bench.Config{Procs: 4, Scale: batteryScale, RuntimeHook: func(r *rt.Runtime) { rtm = r }})
			if !res.Verified() {
				t.Errorf("%s: check %#x != %#x", name, res.Check, res.WantCheck)
			}
			for _, f := range rtm.SiteFaults() {
				t.Errorf("%s: %s", name, f)
			}
			if s := res.Stats; s.Touches != s.Futures {
				t.Errorf("%s: %d touches of %d futures; a kernel touches each future exactly once", name, s.Touches, s.Futures)
			}
		})
	}
}
