package bench_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
)

// TestCoherenceDifferential runs five M+C kernels under all three
// coherence schemes at P∈{2,4,8,32} and scale 1/64 (each subtest names
// its scale), where the battery has run P=4 and the shape table P=32, and
// requires the same program result and the same final heap contents
// everywhere. The schemes may disagree on cycles and invalidation traffic
// — that is the point of Table 3 — but never on what the program
// computed: a divergence means stale data was read through the software
// cache. Voronoi, the sixth, is left out: it allocates at its thread's
// processor inside concurrent spawns, so its final heap follows the
// interleaving, which the schemes' timing moves.
func TestCoherenceDifferential(t *testing.T) {
	for _, name := range []string{"bisort", "em3d", "barneshut", "perimeter", "health"} {
		for _, procs := range []int{2, 4, 8, shapeTop} {
			t.Run(fmt.Sprintf("%s/P%d", name, procs), func(t *testing.T) {
				t.Run(fmt.Sprintf("scale%d", batteryScale), func(t *testing.T) {
					cfg := bench.Config{Procs: procs, Scale: batteryScale}
					ref := shared(t, name, cfg)
					for _, s := range schemes[1:] {
						cfg.Scheme = s
						o := shared(t, name, cfg)
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
			})
		}
	}
}
