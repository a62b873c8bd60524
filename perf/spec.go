package main

import (
	"repro/internal/bench"
	"repro/internal/coherence"
)

// metricSpec names one metric. BENCHMARK.json lists the same names, units
// and directions; the smoke test holds the two together.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share by which it may worsen
}

// workloadSpec names one workload and says why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"sim_table", "researcher path: 10 kernels x 3 schemes at P=4, heuristic mode, direct bench.RunRecorded calls; server, cluster and obs do nothing"},
	{"sim_cache_only", "same 30 configs with rt.CacheOnly forced: every site goes through the software cache and coherence, migrations nearly vanish"},
	{"serve_hot", "closed loop, 2 clients, router to 2 replicas, 30 pre-filled keys: every request is a result-cache hit, the simulator does nothing"},
	{"serve_cold", "closed loop, 2 clients, direct to one replica, never-repeated keys: cluster is bypassed, time is bench kernels plus admission and serialisation"},
	{"serve_batch", "closed loop, 1 client, router to 2 replicas, POST /batch of 6 configs: the cold keys through the second copy of the request pipeline"},
	{"serve_open", "open loop at a fixed rate, router with 2 probe owners, caches start empty, Zipf key mix: queue wait and admission decide latency"},
}

// endToEnd are the metrics a regression is judged by. The benchmark
// contract wants one set that every workload reports, that is never zero,
// and whose spread over ten seeds stays well inside its bound; the issue's
// rule for a figure that does not repeat is to demote it, not to widen its
// bound. Two of the issue's nine survive both. The rest are reported among
// the per-layer metrics under their own names: the tails, the SLO share and
// ns per simulated cycle apply to some workloads only, the median latency
// of a short heterogeneous request list moves 7 to 40 % from seed to seed,
// and peak RSS follows the collector's timing (up to 15 %).
var endToEnd = []metricSpec{
	{"records_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is every per-layer metric, in report order. A metric that does
// not apply to a workload is left out of that workload's report and reads
// 0 in its result line.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var m []metricSpec
	named := func(better string) func(unit string, names ...string) {
		return func(unit string, names ...string) {
			for _, n := range names {
				m = append(m, metricSpec{Name: n, Unit: unit, Better: better})
			}
		}
	}
	lower, higher := named("lower"), named("higher")
	perKernel := func(prefix string) (names []string) {
		for _, k := range bench.Names() {
			names = append(names, prefix+k)
		}
		return names
	}
	perScheme := func(prefix string) (names []string) {
		for _, k := range coherence.Kinds() {
			names = append(names, prefix+k.String())
		}
		return names
	}

	// What a user sees besides the end-to-end metrics; see endToEnd.
	lower("ms", "lat_p50_ms", "lat_p95_ms", "lat_p99_ms")
	higher("ratio", "slo_share")
	lower("ratio", "failed_share")
	lower("ns", "ns_per_simcycle_geomean")
	lower("MiB", "peak_rss_mb")

	lower("us", "cluster.router_self_us")
	lower("count", "cluster.exchanges_per_req")
	higher("ratio", "cluster.probe_hit_ratio")
	lower("count", "cluster.batch_shards_per_req", "cluster.retries")
	lower("ratio", "cluster.shard_spread")
	lower("ns", "cluster.ring_owners_ns")

	lower("us", "server.hit_path_us", "server.miss_overhead_us",
		"server.queue_wait_us_p50", "server.queue_wait_us_p95",
		"server.execute_us_p50", "server.cache_probe_us", "server.serialize_us")
	higher("ratio", "server.result_hit_ratio", "server.phase_hit_ratio")
	lower("ratio", "server.shed_share", "server.expired_share")
	lower("ns", "server.normalize_key_ns")

	lower("ratio", "obs.traced_slowdown")
	lower("ns", "obs.span_sampled_ns", "obs.span_unsampled_ns")

	lower("us", "bench.build_us_p50", "bench.restore_build_us_p50", "bench.kernel_us_p50")
	lower("ratio", "bench.build_share")
	lower("ns", perKernel("bench.ns_per_simcycle.")...)
	lower("ns", perScheme("bench.ns_per_simcycle.scheme.")...)
	lower("count", perKernel("bench.allocs_per_run.")...)
	higher("Mcycles/s", "bench.sim_mcycles_per_s")
	lower("ratio", "bench.baseline_share")

	lower("us", "record.marshal_us")
	lower("KiB", "record.body_kb")

	lower("ns", "rt.local_load_ns", "rt.cached_hit_ns", "rt.cached_miss_ns",
		"rt.migrate_roundtrip_ns", "rt.future_spawn_touch_ns")
	lower("us", "rt.run_setup_us")

	lower("ns", "machine.sched_handoff_ns")
	lower("us", "machine.new_us")
	// Counts of the simulated machine: they change only when the model does.
	lower("count", "machine.migrations", "machine.futures", "machine.misses",
		"machine.remote_refs", "machine.line_fetches", "machine.sim_cycles")

	lower("ns", "cache.hit_ns", "cache.probe_install_ns", "cache.invalidate_all_ns")
	lower("count", "cache.pages_cached")

	lower("ns", perScheme("coherence.release_ns.")...)
	lower("ns", perScheme("coherence.acquire_ns.")...)
	lower("count", "coherence.invalidations", "coherence.stamp_checks", "coherence.full_flushes")

	lower("us", "mem.snapshot_us", "mem.restore_us")
	lower("ns", "trace.emit_ns")
	lower("us", "trace.digest_us")
	lower("ratio", "trace.on_slowdown")
	lower("ns", "metrics.counter_inc_ns")
	lower("us", "metrics.flat_us")
	lower("ratio", "metrics.on_slowdown")
	lower("us", "phases.plan_us")

	lower("us", "perf.harness_floor_us")
	lower("ms", "perf.gen_late_ms_p95")
	return m
}

// specIn finds a metric by name.
func specIn(list []metricSpec, name string) (metricSpec, bool) {
	for _, s := range list {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
