package main

import (
	"time"

	"repro/internal/bench"
	"repro/perf/probe"
)

// Every size, count and duration of the benchmark is here. Load is sized
// for two cores and does not scale with the host: two client goroutines and
// two simulation workers in total.
const (
	// defaultSeconds is how long one run measures when -seconds is not
	// given; BENCHMARK.json's run_seconds is the same number.
	defaultSeconds = 12

	// tableProcs is the simulated machine size of the sim_* sweeps, the
	// serve_hot keys and the warm-up pass.
	tableProcs = 4

	// clients is the closed loops' concurrency (serve_batch: one).
	clients = 2

	// A pass-shaped workload (one sweep, one walk over the cold keys) is
	// repeated on fresh state until the repeats have measured -seconds in
	// total, and at least minRepeats times.
	minRepeats = 2
	// The window-shaped workloads split -seconds into a fixed number of
	// repeats instead.
	hotRepeats  = 3
	openRepeats = 2

	// openZipfS and openPopulationSeed shape the open loop's key mix; see
	// openKeys. The exponent keeps hits between a seventh and a third of
	// the requests over every list length used here: were it near one half,
	// the median latency would flip between a 30 us hit and a 100 ms miss
	// from seed to seed.
	openZipfS          = 0.8
	openPopulationSeed = 1995
	// sloLimit is the open loop's latency limit, measured from the instant
	// a request was due.
	sloLimit = 500 * time.Millisecond

	// referenceChecks is how many served keys per repeat are run again
	// directly through bench.RunRecorded and compared.
	referenceChecks = 3

	// maxSpans caps the spans one traced pass keeps for its trace file;
	// the per-layer figures are computed over every request regardless.
	maxSpans = 20000

	// childTimeout bounds one child process.
	childTimeout = 150 * time.Second
)

// sizes is what a run's cost hangs on.
type sizes struct {
	kernels []string
	// scale divides the paper's problem sizes.
	scale int
	// coldProcs are the machine sizes of the cold and batch key sets,
	// openProcs those of the open loop's key population.
	coldProcs []int
	openProcs []int
	// simSweeps is how many times a sim_* repeat walks the table keys.
	simSweeps int
	// openRate is the open loop's arrival rate in requests per second.
	// openLayerRequests is the list length of its per-layer repeat, longer
	// than an end-to-end repeat's: p95 of queue wait needs 200 misses on
	// the traced pass.
	openRate          float64
	openLayerRequests int
	// probes sizes the micro-probes.
	probes probe.Options
}

// fullSizes is the benchmark: the ten kernels at the wall-clock suite's
// scale.
func fullSizes() sizes {
	return sizes{
		kernels:   bench.Names(),
		scale:     64,
		coldProcs: []int{2, 4},
		openProcs: []int{1, 2, 3, 4, 5, 6, 7, 8},
		simSweeps: 1,
		// At this scale 8 requests a second keep the two workers about
		// 40 % busy.
		openRate:          8,
		openLayerRequests: 300,
		probes:            probe.Options{Budget: 50 * time.Millisecond, Rounds: 5},
	}
}

// smokeSizes drives every workload in a few seconds for the smoke test:
// the two cheapest kernels at their smallest size, and an open loop fast
// and long enough to give the generator's p95 its two hundred requests.
func smokeSizes() sizes {
	return sizes{
		kernels:           []string{"treeadd", "perimeter"},
		scale:             1024,
		coldProcs:         []int{1, 2, 3},
		openProcs:         []int{1, 2, 3, 4},
		simSweeps:         1,
		openRate:          400,
		openLayerRequests: 204,
		probes:            probe.Options{Budget: time.Millisecond, Rounds: 1},
	}
}
