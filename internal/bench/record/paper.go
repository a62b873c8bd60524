package record

// Published Table 2 speedups from Carlisle & Rogers (PPoPP'95), transcribed
// in EXPERIMENTS.md. These are the paper columns of Table2Markdown and
// CurveMarkdown: the published CM-5 number beside the reproduction's speedup
// at the same machine size. Machine sizes run P = 1, 2, 4, 8, 16, 32; the final
// column is the migrate-only speedup at 32 processors (negative sentinel
// when the paper prints a dash, see paperMigrateOnly).
var paperTable2 = map[string][6]float64{
	"treeadd":   {0.73, 1.47, 2.93, 5.90, 11.81, 23.4},
	"power":     {0.96, 1.94, 3.81, 6.92, 14.85, 27.5},
	"tsp":       {0.95, 1.92, 3.70, 6.70, 10.08, 15.8},
	"mst":       {0.96, 1.36, 2.20, 3.43, 4.56, 5.14},
	"bisort":    {0.73, 1.35, 2.29, 3.52, 4.92, 6.33},
	"voronoi":   {0.75, 1.38, 2.41, 4.23, 6.88, 8.76},
	"em3d":      {0.86, 1.51, 2.69, 4.48, 6.72, 12.0},
	"barneshut": {0.74, 1.42, 3.00, 5.29, 8.13, 11.2},
	"perimeter": {0.86, 1.70, 3.37, 6.09, 9.86, 14.1},
	"health":    {0.73, 1.47, 2.93, 5.72, 11.09, 16.42},
}

// paperMigrateOnly is the M-only(32) column; the paper prints a dash for
// the pure-migration benchmarks (their heuristic run IS migrate-only) and
// "<0.01" for barneshut, stored here as its upper bound.
var paperMigrateOnly = map[string]float64{
	"bisort":    6.13,
	"voronoi":   0.47,
	"em3d":      0.05,
	"barneshut": 0.01,
	"perimeter": 2.96,
	"health":    16.52,
}

// PaperSpeedup returns the published Table 2 speedup for a benchmark at a
// machine size, when the paper reports one (P must be a power of two in
// 1..32).
func PaperSpeedup(bench string, procs int) (float64, bool) {
	row, ok := paperTable2[bench]
	if !ok {
		return 0, false
	}
	idx := -1
	for i, p := 0, 1; p <= 32; i, p = i+1, p*2 {
		if p == procs {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false
	}
	return row[idx], true
}

// PaperMigrateOnly returns the published migrate-only speedup at 32
// processors, when the paper reports one.
func PaperMigrateOnly(bench string) (float64, bool) {
	v, ok := paperMigrateOnly[bench]
	return v, ok
}

// Table3Row is one published Table 3 row, at 32 processors: cacheable
// writes and reads in thousands with the percentage of each that was
// remote, the miss rate under each coherence scheme, and the pages cached.
type Table3Row struct {
	CacheWr, RemoteWr, CacheRd, RemoteRd float64
	MissLocal, MissGlobal, MissBilateral float64
	Pages                                int64
}

// paperTable3 is Table 3 for the six migrate-and-cache benchmarks; these
// are the paper columns of Table3Markdown at P=32.
var paperTable3 = map[string]Table3Row{
	"bisort":    {8208, 0.045, 32617, 0.054, 28.6, 24.9, 29.2, 1604},
	"voronoi":   {9825, 1.57, 42359, 1.26, 5.89, 5.89, 5.89, 2982},
	"em3d":      {0, 0, 839, 19.4, 6.18, 6.18, 6.18, 1995},
	"barneshut": {2707, 18.3, 73601, 55.6, 0.815, 0.563, 0.792, 21749},
	"perimeter": {0, 0, 1018, 2.02, 8.80, 8.63, 8.80, 502},
	"health":    {8861, 0.063, 33405, 0.019, 87.0, 10.3, 87.0, 163},
}

// PaperTable3 returns the published Table 3 row of a benchmark, when the
// paper reports one.
func PaperTable3(bench string) (Table3Row, bool) {
	row, ok := paperTable3[bench]
	return row, ok
}
