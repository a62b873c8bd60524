// The pprof harness for the simulator's wall clock. The wall-clock
// *measurement* — records/s, ns/sim-cycle, allocations per run, with output
// checks that fail the run — is the repository benchmark (`go run -C perf .
// -workload sim_table`), which re-executes children and so cannot take
// -cpuprofile. These benchmarks run the same thirty configurations inside
// one test binary, which is what the profiler needs; they also report
// ns/sim-cycle alongside Go's ns/op and -benchmem counts for a quick look.
//
//	make profile   # pprof CPU + allocation profiles over this suite
//	go test -run '^$' -bench WallClock -benchmem
//
// BENCH_SCALE divides the paper's problem sizes (default 64, like the
// Table benchmarks): BENCH_SCALE=8 go test -bench WallClock -benchtime=1x
package repro_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/rt"
)

// wallProcs is the machine size the wall-clock suite runs at; P=4 matches
// the committed BENCH_*.json pins and the EXPERIMENTS.md geomean.
const wallProcs = 4

// parseBenchScale reads a problem-size divisor from the BENCH_SCALE
// environment text, falling back to def when the text is empty or not a
// positive integer. It is the one parser behind every harness that honors
// the knob.
func parseBenchScale(s string, def int) int {
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		return def
	}
	return v
}

// envScale returns the effective suite scale: BENCH_SCALE, or def.
func envScale(def int) int { return parseBenchScale(os.Getenv("BENCH_SCALE"), def) }

// wallCase is one wall-clock measurement: a kernel under one scheme.
type wallCase struct {
	bench string // registered benchmark name
	label string // sub-benchmark label (bench/scheme)
	cfg   bench.Config
}

// wallCases enumerates the full suite: all ten kernels × the three
// coherence schemes at P=4. Both the benchmark and its smoke test walk
// this list, so the smoke test proves exactly the suite CI measures.
func wallCases(scale int) []wallCase {
	var cases []wallCase
	for _, name := range bench.Names() {
		for _, scheme := range coherence.Kinds() {
			cases = append(cases, wallCase{
				bench: name,
				label: fmt.Sprintf("%s/%s", name, scheme),
				cfg:   bench.Config{Procs: wallProcs, Scale: scale, Scheme: scheme},
			})
		}
	}
	return cases
}

// runWall executes one case and fails the harness if the kernel's answer
// does not verify against the sequential reference.
func runWall(tb testing.TB, name string, cfg bench.Config) bench.Result {
	info, ok := bench.Get(name)
	if !ok {
		tb.Fatalf("benchmark %q not registered", name)
	}
	res := info.Run(cfg)
	if !res.Verified() {
		tb.Fatalf("%s: check %#x != %#x", name, res.Check, res.WantCheck)
	}
	return res
}

// reportSimRate attaches the wall-clock-per-simulated-cycle metric.
func reportSimRate(b *testing.B, cycles int64) {
	if cycles > 0 && b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/sim-cycle")
	}
}

// BenchmarkWallClock runs every kernel under every coherence scheme at P=4
// and reports wall-clock time, allocations, and ns/sim-cycle. This is the
// suite `make profile` and the bench-wallclock CI job profile, and the one
// EXPERIMENTS.md's PR 8 before/after table was measured with.
func BenchmarkWallClock(b *testing.B) {
	for _, c := range wallCases(suiteScale) {
		c := c
		b.Run(c.label, func(b *testing.B) {
			b.ReportAllocs()
			var res bench.Result
			for i := 0; i < b.N; i++ {
				res = runWall(b, c.bench, c.cfg)
			}
			reportSimRate(b, res.Cycles)
		})
	}
}

// BenchmarkWallClockBaseline measures the sequential (no-overhead) runs —
// the pure single-thread hot path with no scheduler handoffs at all.
func BenchmarkWallClockBaseline(b *testing.B) {
	scale := suiteScale
	for _, name := range bench.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var res bench.Result
			for i := 0; i < b.N; i++ {
				res = runWall(b, name, bench.Config{Baseline: true, Scale: scale})
			}
			reportSimRate(b, res.Cycles)
		})
	}
}

// BenchmarkWallClockModes isolates the two mechanism extremes for
// profiling: migrate-only stresses scheduler handoffs and coherence
// releases, cache-only stresses the cache-lookup fast path.
func BenchmarkWallClockModes(b *testing.B) {
	scale := suiteScale
	for _, name := range []string{"treeadd", "em3d", "health"} {
		for _, mode := range []rt.Mode{rt.MigrateOnly, rt.CacheOnly} {
			name, mode := name, mode
			b.Run(fmt.Sprintf("%s/%s", name, mode), func(b *testing.B) {
				b.ReportAllocs()
				var res bench.Result
				for i := 0; i < b.N; i++ {
					res = runWall(b, name, bench.Config{Procs: wallProcs, Scale: scale, Mode: mode})
				}
				reportSimRate(b, res.Cycles)
			})
		}
	}
}

// TestBenchScaleParse pins the BENCH_SCALE parsing contract: empty,
// garbage, zero and negative fall back to the default; positive integers
// win.
func TestBenchScaleParse(t *testing.T) {
	cases := []struct {
		in   string
		def  int
		want int
	}{
		{"", 64, 64},
		{"8", 64, 8},
		{"1", 64, 1},
		{"0", 64, 64},
		{"-4", 64, 64},
		{"sixteen", 64, 64},
		{"64", 16, 64},
	}
	for _, c := range cases {
		if got := parseBenchScale(c.in, c.def); got != c.want {
			t.Errorf("parseBenchScale(%q, %d) = %d; want %d", c.in, c.def, got, c.want)
		}
	}
}

// TestWallClockSmoke runs every case of the wall-clock suite exactly once
// at scale 1/64 — the -benchtime=1x semantics — proving the suite stays
// runnable (and verified) as kernels and schemes evolve.
func TestWallClockSmoke(t *testing.T) {
	for _, c := range wallCases(64) {
		runWall(t, c.bench, c.cfg)
	}
}
