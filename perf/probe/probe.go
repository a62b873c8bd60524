// Package probe times the layers below the request path that no span can
// see: a timed loop over each layer's exported functions, from outside the
// layer. The numbers are per-layer metrics — they say where a change
// landed, never whether it was worth making; only an end-to-end metric of
// the benchmark can say that.
package probe

import (
	"sort"
	"time"
)

// Result is one probe's figure: the median over batches of the mean time
// of one operation (or a plain ratio or size where the unit says so).
type Result struct {
	Name  string
	Unit  string
	Value float64
	N     int // operations behind the figure
}

// Options sizes a probe run.
type Options struct {
	// Budget is roughly how long each timed probe runs.
	Budget time.Duration
	// Rounds is how many with/without pairs the *_slowdown probes run;
	// each round executes real kernels, so it is counted, not timed.
	Rounds int
}

// All runs every probe.
func All(opt Options) []Result {
	var out []Result
	for _, group := range [](func(Options) []Result){
		clusterProbes, serverProbes, obsProbes, recordProbes, rtProbes,
		machineProbes, cacheProbes, coherenceProbes, memProbes,
		traceProbes, metricsProbes, phasesProbes, harnessProbes,
	} {
		out = append(out, group(opt)...)
	}
	return out
}

// perOp runs batch — which performs ops operations and returns how long
// they took — until the budget is spent, at least three times, and
// reports the median per-operation time in the given unit (ns or us).
func perOp(opt Options, name, unit string, ops int, batch func() time.Duration) Result {
	var per []float64
	total := 0
	for start := time.Now(); len(per) < 3 || time.Since(start) < opt.Budget; {
		d := batch()
		per = append(per, float64(d.Nanoseconds())/float64(ops))
		total += ops
	}
	v := median(per)
	if unit == "us" {
		v /= 1e3
	}
	return Result{Name: name, Unit: unit, Value: v, N: total}
}

func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

// timed is the common batch shape: ops calls of fn, timed as a block.
func timed(ops int, fn func(i int)) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			fn(i)
		}
		return time.Since(t0)
	}
}

// sink keeps results the compiler could otherwise prove unused.
var sink uint64
