// Package repro_test holds the ablations of the design choices DESIGN.md
// calls out, the analysis benchmark and the wall-clock benchmarks, as
// testing.B benchmarks. Custom metrics carry the simulated quantities
// (cycles, miss rates) alongside Go's wall-clock numbers:
//
//	go test -run '^$' -bench=Ablation -benchmem
//	BENCH_SCALE=8 go test -run '^$' -bench=. -benchtime=1x
//
// Problem sizes default to 1/64 of the paper's (BENCH_SCALE divides the
// paper sizes instead when set to a positive integer). The paper's tables
// and figures are cmd/oldenbench's: it renders them from run records.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/olden"

	_ "repro/internal/bench/all"
)

// benchScale is the default size divisor for the testing.B harness; the
// BENCH_SCALE environment knob overrides it (parsed by parseBenchScale in
// wallclock_bench_test.go, which also pins the parsing contract).
const benchScale = 64

// suiteScale is the effective divisor for this process.
var suiteScale = envScale(benchScale)

// benchProcs is the machine size of the coherence ablation.
const benchProcs = 8

// BenchmarkAblationThreshold sweeps the migration threshold and reports how
// many of the ten benchmark kernels remain migration-only — the knob §4.3
// fixes at 90%.
func BenchmarkAblationThreshold(b *testing.B) {
	kernels := benchKernels()
	for _, th := range []int{50, 70, 86, 90, 95, 101} {
		b.Run(fmt.Sprintf("threshold=%d", th), func(b *testing.B) {
			var mOnly int
			for i := 0; i < b.N; i++ {
				mOnly = 0
				for _, src := range kernels {
					p := olden.DefaultParams()
					p.Threshold = float64(th) / 100
					rep, err := olden.AnalyzeWith(src, p)
					if err != nil {
						b.Fatal(err)
					}
					if rep.UsesMigrationOnly() {
						mOnly++
					}
				}
			}
			b.ReportMetric(float64(mOnly), "M-only-kernels")
		})
	}
}

// BenchmarkAblationCostRatio sweeps the migration:miss cost ratio (the
// paper's CM-5 measured ≈7×) and reports where the blocked-list crossover
// between mechanisms sits.
func BenchmarkAblationCostRatio(b *testing.B) {
	const n, p = 512, 8
	for _, ratio := range []int64{1, 3, 7, 20} {
		b.Run(fmt.Sprintf("migrate-to-miss=%dx", ratio), func(b *testing.B) {
			var mig, cac int64
			for i := 0; i < b.N; i++ {
				cost := machine.DefaultCost()
				total := cost.MissTotal() * ratio
				cost.MigrateSend = total * 2 / 7
				cost.MigrateNet = total * 3 / 7
				cost.MigrateRecv = total - cost.MigrateSend - cost.MigrateNet
				mig = runList(cost, n, p, olden.Migrate)
				cac = runList(cost, n, p, olden.Cache)
			}
			b.ReportMetric(float64(mig), "migrate-cycles")
			b.ReportMetric(float64(cac), "cache-cycles")
			b.ReportMetric(float64(mig)/float64(cac), "migrate-over-cache")
		})
	}
}

// runList traverses a blocked list under the given cost model.
func runList(cost machine.Cost, n, p int, mech olden.Mechanism) int64 {
	r := rt.New(rt.Config{Procs: p})
	r.M.Cost = cost
	nodes := make([]olden.GP, n)
	for j := range nodes {
		nodes[j] = r.RawAlloc(bench.BlockedProc(j, n, p), 16)
	}
	for j := range nodes {
		if j+1 < n {
			r.RawStorePtr(nodes[j], 8, nodes[j+1])
		}
	}
	site := &rt.Site{Name: "costs.walk", Mech: mech}
	return r.Run(0, func(t *rt.Thread) {
		for g := nodes[0]; !g.IsNil(); g = t.LoadPtr(site, g, 8) {
			t.Work(10)
		}
	})
}

// BenchmarkAblationCoherence compares the three schemes on the benchmark
// most sensitive to them (Health, per Table 3).
func BenchmarkAblationCoherence(b *testing.B) {
	info, _ := bench.Get("health")
	for _, scheme := range []coherence.Kind{coherence.LocalKnowledge, coherence.GlobalKnowledge, coherence.Bilateral} {
		b.Run(scheme.String(), func(b *testing.B) {
			var res bench.Result
			for i := 0; i < b.N; i++ {
				res = info.Run(bench.Config{Procs: benchProcs, Scale: suiteScale, Scheme: scheme})
			}
			if !res.Verified() {
				b.Fatal("verification failed")
			}
			b.ReportMetric(float64(res.Cycles), "sim-cycles")
			b.ReportMetric(res.Stats.MissPct(), "miss-pct")
		})
	}
}

// BenchmarkAnalysis measures the compile-time analysis itself over all ten
// kernels.
func BenchmarkAnalysis(b *testing.B) {
	kernels := benchKernels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range kernels {
			if _, err := olden.Analyze(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
