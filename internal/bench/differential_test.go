package bench_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/rt"

	_ "repro/internal/bench/all"
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
				info, ok := bench.Get(name)
				if !ok {
					t.Fatalf("benchmark %q not registered", name)
				}
				type outcome struct {
					scheme string
					check  uint64
					heap   uint64
				}
				var ref *outcome
				for _, s := range schemes {
					var rtm *rt.Runtime
					res := info.Run(bench.Config{
						Procs:       procs,
						Scheme:      s.kind,
						RuntimeHook: func(r *rt.Runtime) { rtm = r },
					})
					if !res.Verified() {
						t.Fatalf("%s under %s: check %#x != %#x", name, s.name, res.Check, res.WantCheck)
					}
					if rtm == nil {
						t.Fatalf("%s under %s: RuntimeHook never ran", name, s.name)
					}
					o := outcome{scheme: s.name, check: res.Check, heap: rtm.HeapFingerprint()}
					if ref == nil {
						ref = &o
						continue
					}
					if o.check != ref.check {
						t.Errorf("program result differs between schemes %s and %s: %#x vs %#x",
							ref.scheme, o.scheme, ref.check, o.check)
					}
					if o.heap != ref.heap {
						t.Errorf("final heap contents differ between schemes %s and %s: %016x vs %016x",
							ref.scheme, o.scheme, ref.heap, o.heap)
					}
				}
			})
		}
	}
}
