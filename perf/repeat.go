package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/rt"
	"repro/perf/load"
	"repro/perf/probe"
)

// job is one repeat's instructions: what the parent puts on a child's
// command line.
type job struct {
	Kind     string // "e2e", "layers" or "probes"
	Workload string
	Seed     int64
	Seconds  float64
	// Spawned is when the parent started the child, so that setup_s covers
	// process start and package initialisation too; zero when the repeat
	// runs inside the caller's process.
	Spawned time.Time
	OutDir  string
	sz      sizes
}

// windowed reports whether the workload's repeats are time windows (true)
// or passes over a fixed request list (false), and how many windows split
// -seconds.
func windowed(workload string) (repeats int, ok bool) {
	switch workload {
	case "serve_hot":
		return hotRepeats, true
	case "serve_open":
		return openRepeats, true
	}
	return 0, false
}

// window is the length of one repeat's timed region, for the workloads
// that have one.
func (j job) window() time.Duration {
	k, ok := windowed(j.Workload)
	if !ok {
		return 0
	}
	return time.Duration(j.Seconds / float64(k) * float64(time.Second))
}

// onePass runs the workload once on fresh state; ls selects the traced
// build. The sim workloads also return their timed calls.
func (j job) onePass(window time.Duration, ls *layerSamples) (*pass, []simRun) {
	switch j.Workload {
	case "sim_table":
		return simPass(j.sz, rt.Heuristic, ls)
	case "sim_cache_only":
		return simPass(j.sz, rt.CacheOnly, ls)
	case "serve_hot":
		return serveHot(j.sz, j.Seed, window, ls), nil
	case "serve_cold":
		return serveCold(j.sz, j.Seed, ls), nil
	case "serve_batch":
		return serveBatch(j.sz, j.Seed, ls), nil
	case "serve_open":
		n := max(int(j.sz.openRate*window.Seconds()), 1)
		if j.Kind == "layers" {
			n = j.sz.openLayerRequests
		}
		return serveOpen(j.sz, j.Seed, n, ls), nil
	}
	panic("perf: unknown workload " + j.Workload)
}

// run executes the job in this process.
func (j job) run() repeatResult {
	entered := time.Now()
	switch j.Kind {
	case "e2e":
		p, _ := j.onePass(j.window(), nil)
		setup := p.setup
		if !j.Spawned.IsZero() {
			setup += entered.Sub(j.Spawned)
		}
		m := p.userMetrics(setup) // before the reference runs can move the peak RSS
		j.referenceCheck(p)
		return p.result(m)
	case "layers":
		return j.layers()
	case "probes":
		m := map[string]value{}
		for _, r := range probe.All(j.sz.probes) {
			m[r.Name] = value{r.Value, r.N}
		}
		return repeatResult{Metrics: m, Attempted: len(m)}
	}
	panic("perf: unknown job kind " + j.Kind)
}

func (p *pass) result(m map[string]value) repeatResult {
	return repeatResult{
		Metrics:   m,
		Attempted: len(p.samples),
		Failed:    p.failed,
		Measured:  p.elapsed.Seconds(),
		Problems:  p.problems,
		Identity:  p.identity,
	}
}

// layers is the per-layer repeat of one workload. The serve workloads run
// twice on fresh state, untraced and traced: the first gives the counts,
// the tails and the latency tracing is compared against, the second the
// spans. The sim workloads run the traced sweep only; its hook is two
// clock reads a phase.
func (j job) layers() repeatResult {
	m := map[string]value{}
	ls := newLayerSamples()
	var counted, traced *pass
	// user files what the untraced repeats report too, except the
	// end-to-end metrics themselves. It is read as soon as the counted
	// pass ends: a traced pass keeps up to 64 sampled requests' event
	// rings alive and would set the peak RSS.
	user := func() {
		for name, v := range counted.userMetrics(counted.setup) {
			if _, e2e := specIn(endToEnd, name); !e2e {
				m[name] = v
			}
		}
	}
	if j.Workload == "sim_table" || j.Workload == "sim_cache_only" {
		var runs []simRun
		traced, runs = j.onePass(0, ls)
		counted = traced
		user()
		simLayerMetrics(j.sz, runs, m)
	} else {
		counted, _ = j.onePass(j.window(), nil)
		user()
		traced, _ = j.onePass(j.window(), ls)
		traced.problems = append(traced.problems, counted.problems...)
		serveLayerMetrics(counted, ls, m)
	}
	counted.sums.metrics(m, len(counted.identity))
	for name, v := range counted.counts {
		m[name] = v
	}
	phaseMetrics(ls, m)
	if err := ls.write(j.OutDir, j.Workload, j.Seed); err != nil {
		traced.problem("trace file: %v", err)
	}
	res := traced.result(m)
	res.Attempted, res.Failed = len(counted.samples), counted.failed
	return res
}

// serveLayerMetrics are the span-derived figures of a serve workload.
func serveLayerMetrics(untraced *pass, ls *layerSamples, into map[string]value) {
	median := func(metric, sample string) {
		if vs := ls.byName[sample]; len(vs) > 0 {
			into[metric] = value{load.Median(vs), len(vs)}
		}
	}
	median("cluster.router_self_us", "router_self_us")
	median("server.hit_path_us", "hit_path_us")
	median("server.miss_overhead_us", "miss_overhead_us")
	median("server.queue_wait_us_p50", "queue_wait_us")
	median("server.execute_us_p50", "execute_us")
	// The service's own spans have microsecond resolution: the median of a
	// sub-microsecond step reads 0, its mean does not.
	for metric, sample := range map[string]string{"server.cache_probe_us": "cache_probe_us", "server.serialize_us": "serialize_us"} {
		if vs := ls.byName[sample]; len(vs) > 0 {
			into[metric] = value{meanOf(vs), len(vs)}
		}
	}
	if v, ok := load.Percentile(sorted(ls.byName["queue_wait_us"]), 95); ok {
		into["server.queue_wait_us_p95"] = value{v, len(ls.byName["queue_wait_us"])}
	}
	// What sampling every request costs: mean time in the handler call,
	// traced over untraced. On a closed loop this is the inverse ratio of
	// the two passes' records_per_s.
	if ms := load.Millis(untraced.samples); len(ms) > 0 && len(ls.byName["client_us"]) > 0 {
		into["obs.traced_slowdown"] = value{meanOf(ls.byName["client_us"]) / 1e3 / meanOf(ms), len(ls.byName["client_us"])}
	}
}

// referenceCheck runs a few of the keys a serve pass delivered again,
// directly through bench.RunRecorded, and compares cycles and digests: the
// same configuration must come out the same by every path.
func (j job) referenceCheck(p *pass) {
	if j.Workload != "serve_cold" && j.Workload != "serve_batch" {
		return
	}
	keys := flatten(j.sz.coldGroups())
	for _, at := range load.Walk(j.Seed, len(keys))[:referenceChecks] {
		k := keys[at]
		_, rec := bench.RunRecorded(k.Info, k.Cfg)
		if got, ok := p.identity[k.Key]; !ok || got != identityOf(rec) {
			p.problem("%s: served %q, direct run %q", k.Key, got, identityOf(rec))
		}
	}
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		panic(fmt.Sprintf("perf: peak RSS: %v", err))
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			if err != nil {
				panic(fmt.Sprintf("perf: peak RSS: %v", err))
			}
			return kb / 1024
		}
	}
	panic("perf: no VmHWM in /proc/self/status")
}
