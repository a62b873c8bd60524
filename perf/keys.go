package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/rt"
	"repro/internal/server"
	"repro/perf/load"

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

// runKey is one run configuration in the three forms the workloads need:
// the simulator's, the service's canonical cache key, and a POST /run body.
type runKey struct {
	Info bench.Info
	Cfg  bench.Config
	Req  server.RunRequest
	Key  string
	Body []byte
}

func (sz sizes) newKey(kernel string, scheme coherence.Kind, mode rt.Mode, procs int) runKey {
	info, ok := bench.Get(kernel)
	if !ok {
		panic("perf: benchmark " + kernel + " is not registered")
	}
	req, err := server.Normalize(server.RunRequest{
		Benchmark: kernel, Procs: procs, Scale: sz.scale, Scheme: scheme.String(), Mode: mode.String(),
	})
	if err != nil {
		panic(fmt.Sprintf("perf: the service rejects %s P=%d: %v", kernel, procs, err))
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return runKey{
		Info: info,
		Cfg:  bench.Config{Procs: procs, Scale: sz.scale, Scheme: scheme, Mode: mode},
		Req:  req,
		Key:  server.CacheKey(req),
		Body: body,
	}
}

// tableKeys is the wall-clock suite: every kernel under every scheme at
// P=4, kernel-major, in one mechanism mode.
func (sz sizes) tableKeys(mode rt.Mode) []runKey {
	var out []runKey
	for _, k := range sz.kernels {
		for _, s := range coherence.Kinds() {
			out = append(out, sz.newKey(k, s, mode, tableProcs))
		}
	}
	return out
}

// coldGroups is the cold key set, grouped the way /batch wants it: one
// group per kernel and machine size, holding its three schemes under the
// heuristic and under cache-only. The six share one build phase.
func (sz sizes) coldGroups() [][]runKey {
	var out [][]runKey
	for _, k := range sz.kernels {
		for _, p := range sz.coldProcs {
			var g []runKey
			for _, m := range []rt.Mode{rt.Heuristic, rt.CacheOnly} {
				for _, s := range coherence.Kinds() {
					g = append(g, sz.newKey(k, s, m, p))
				}
			}
			out = append(out, g)
		}
	}
	return out
}

func flatten(groups [][]runKey) []runKey {
	var out []runKey
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// batchBody renders one group as a POST /batch body.
func batchBody(group []runKey) []byte {
	var breq server.BatchRequest
	for _, k := range group {
		breq.Runs = append(breq.Runs, k.Req)
	}
	body, err := json.Marshal(breq)
	if err != nil {
		panic(err)
	}
	return body
}

// openKeys is the open loop's request list: n requests over every kernel,
// scheme, mode and machine size, popularity Zipf-distributed over a
// fixed shuffle of that population. The shuffle is fixed and the counts
// are the law's expectation (see load.Zipf), so every seed asks for the
// same runs the same number of times and only the arrival order differs:
// the kernels cost from 10 to 400 ms each, and a seed that decided which
// of them are popular would decide the workload's cost.
func (sz sizes) openKeys(seed int64, n int) []runKey {
	var pop []runKey
	for _, k := range sz.kernels {
		for _, s := range coherence.Kinds() {
			for _, m := range rt.Modes() {
				for _, p := range sz.openProcs {
					pop = append(pop, sz.newKey(k, s, m, p))
				}
			}
		}
	}
	rand.New(rand.NewSource(openPopulationSeed)).Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
	out := make([]runKey, 0, n)
	for _, rank := range load.Zipf(seed, n, len(pop), openZipfS) {
		out = append(out, pop[rank])
	}
	return out
}
