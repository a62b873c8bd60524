package bench_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
)

// TestCoherenceDifferential runs bisort and perimeter under all three
// coherence schemes at P=2 and P=8 and requires the same program result
// and the same final heap contents everywhere. The schemes may disagree
// on cycles and invalidation traffic — that is the point of Table 3 —
// but never on what the program computed: a divergence means stale data
// was read through the software cache.
func TestCoherenceDifferential(t *testing.T) {
	for _, name := range []string{"bisort", "perimeter"} {
		for _, procs := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/P%d", name, procs), func(t *testing.T) {
				ref := shared(t, name, bench.Config{Procs: procs, Scheme: schemes[0]})
				for _, s := range schemes[1:] {
					o := shared(t, name, bench.Config{Procs: procs, Scheme: s})
					if o.res.Check != ref.res.Check {
						t.Errorf("program result differs between schemes %s and %s: %#x vs %#x",
							schemes[0], s, ref.res.Check, o.res.Check)
					}
					if o.heap != ref.heap {
						t.Errorf("final heap contents differ between schemes %s and %s: %016x vs %016x",
							schemes[0], s, ref.heap, o.heap)
					}
				}
			})
		}
	}
}
