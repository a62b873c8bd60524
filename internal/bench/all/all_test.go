package all_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	_ "repro/internal/bench/all"
)

// TestLinksTheTenKernels is the link set's contract: this test binary
// imports no kernel package itself, so whatever bench.Names() lists came in
// through package all — exactly the ten Table 1 benchmarks, in the paper's
// order, each with the mini-C kernel source oldenc -bench reads.
func TestLinksTheTenKernels(t *testing.T) {
	want := []string{"treeadd", "power", "tsp", "mst", "bisort",
		"voronoi", "em3d", "barneshut", "perimeter", "health"}
	if got := bench.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("bench.Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		if info, _ := bench.Get(name); info.Run == nil || info.Source == "" {
			t.Errorf("%s registered without Run or Source", name)
		}
	}
}
