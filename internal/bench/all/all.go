// Package all links the ten Table 1 benchmark kernels into a binary. Each
// kernel package registers itself with internal/bench from its init, so a
// program or test that resolves benchmarks by name (bench.Get, bench.Names,
// the catalog) blank-imports this package instead of repeating the list.
package all

import (
	_ "repro/internal/bench/barneshut"
	_ "repro/internal/bench/bisort"
	_ "repro/internal/bench/em3d"
	_ "repro/internal/bench/health"
	_ "repro/internal/bench/mst"
	_ "repro/internal/bench/perimeter"
	_ "repro/internal/bench/power"
	_ "repro/internal/bench/treeadd"
	_ "repro/internal/bench/tsp"
	_ "repro/internal/bench/voronoi"
)
