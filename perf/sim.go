package main

import (
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/rt"
	"repro/perf/load"
)

// warmUp runs every kernel once, untimed, so that what is lazily set up
// once per process (heap growth, the recorder's ring, code paging in) is
// paid before the timed region and shows in setup_s instead.
func warmUp(sz sizes, mode rt.Mode) {
	for _, k := range sz.kernels {
		key := sz.newKey(k, coherence.LocalKnowledge, mode, tableProcs)
		if res, _ := bench.RunRecorded(key.Info, key.Cfg); !res.Verified() {
			panic("perf: warm-up run of " + k + " did not verify")
		}
	}
}

// simRun is one timed simulator call.
type simRun struct {
	key    runKey
	rec    record.RunRecord
	wall   time.Duration
	allocs uint64
}

// simPass is one repeat of a sim workload: sz.simSweeps sweeps over the
// table keys, direct calls into the simulator, one after the other, each
// timed. With ls set it is the traced sweep: the phased entry point with
// the OnPhase hook installed, and an allocation count around every call.
func simPass(sz sizes, mode rt.Mode, ls *layerSamples) (*pass, []simRun) {
	t0 := time.Now()
	warmUp(sz, mode)
	var keys []runKey
	for i := 0; i < sz.simSweeps; i++ {
		keys = append(keys, sz.tableKeys(mode)...)
	}
	settle()
	p := newPass()
	p.setup = time.Since(t0)
	var runs []simRun
	start := time.Now()
	for i, k := range keys {
		run := simRun{key: k}
		if ls == nil {
			t := time.Now()
			_, run.rec = bench.RunRecorded(k.Info, k.Cfg)
			run.wall = time.Since(t)
		} else {
			run = tracedSimRun(k, ls)
		}
		p.samples = append(p.samples, load.Sample{Index: i, Lat: run.wall, OK: run.rec.Verified})
		if run.rec.Verified {
			p.records++
		} else {
			p.failed++
		}
		p.note(k.Key, run.rec)
		runs = append(runs, run)
	}
	p.elapsed = time.Since(start)
	return p, runs
}

func tracedSimRun(k runKey, ls *layerSamples) simRun {
	tr := ls.request()
	root := tr.begin(0, "run:"+k.Key)
	cfg := k.Cfg
	cfg.OnPhase = func(name string) func() {
		id := tr.begin(root, name)
		return func() { tr.end(id) }
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	_, rec, _, _, err := bench.RunPhasedRecorded(k.Info, cfg, nil)
	wall := time.Since(t)
	runtime.ReadMemStats(&after)
	tr.end(root)
	if err != nil {
		rec.Verified = false
	}
	samples := map[string][]float64{}
	for _, s := range tr.children(root) {
		samples[s.Name+"_us"] = append(samples[s.Name+"_us"], float64(s.dur())/1e3)
	}
	ls.keep(tr, samples)
	return simRun{key: k, rec: rec, wall: wall, allocs: after.Mallocs - before.Mallocs}
}

// simLayerMetrics turns a traced sweep into the per-layer figures of the
// bench layer.
func simLayerMetrics(sz sizes, runs []simRun, into map[string]value) {
	type acc struct {
		wall   time.Duration
		cycles int64
		allocs uint64
		n      int
	}
	byKernel, byScheme := map[string]*acc{}, map[string]*acc{}
	var total acc
	var perConfig []float64
	for _, r := range runs {
		for _, a := range []*acc{&total, get(byKernel, r.key.Req.Benchmark), get(byScheme, r.key.Req.Scheme)} {
			a.wall += r.wall
			a.cycles += r.rec.Cycles
			a.allocs += r.allocs
			a.n++
		}
		perConfig = append(perConfig, float64(r.wall.Nanoseconds())/float64(r.rec.Cycles))
	}
	nsPerCycle := func(a *acc) float64 { return float64(a.wall.Nanoseconds()) / float64(a.cycles) }
	into["ns_per_simcycle_geomean"] = value{geomean(perConfig), len(perConfig)}
	for k, a := range byKernel {
		into["bench.ns_per_simcycle."+k] = value{nsPerCycle(a), a.n}
		into["bench.allocs_per_run."+k] = value{float64(a.allocs) / float64(a.n), a.n}
	}
	for s, a := range byScheme {
		into["bench.ns_per_simcycle.scheme."+s] = value{nsPerCycle(a), a.n}
	}
	into["bench.sim_mcycles_per_s"] = value{float64(total.cycles) / total.wall.Seconds() / 1e6, total.n}

	// The sequential reference every speedup divides by: one baseline run
	// per kernel, as a share of the sweep it sits beside.
	var baseline time.Duration
	for _, k := range sz.kernels {
		info, _ := bench.Get(k)
		t := time.Now()
		bench.RunRecorded(info, bench.Config{Baseline: true, Scale: sz.scale})
		baseline += time.Since(t)
	}
	into["bench.baseline_share"] = value{baseline.Seconds() * float64(sz.simSweeps) / total.wall.Seconds(), len(sz.kernels)}
}

func get[T any](m map[string]*T, k string) *T {
	if m[k] == nil {
		m[k] = new(T)
	}
	return m[k]
}

// phaseMetrics are the bench-layer phase timings, from the OnPhase hook on
// the sim workloads and from the service's phase:* spans on the serve ones.
func phaseMetrics(ls *layerSamples, into map[string]value) {
	var build, all float64
	for name, metric := range map[string]string{
		"build_us":         "bench.build_us_p50",
		"restore_build_us": "bench.restore_build_us_p50",
		"kernel_us":        "bench.kernel_us_p50",
	} {
		vs := ls.byName[name]
		if len(vs) == 0 {
			continue
		}
		into[metric] = value{load.Median(vs), len(vs)}
		for _, v := range vs {
			all += v
			if name != "kernel_us" {
				build += v
			}
		}
	}
	if all > 0 {
		into["bench.build_share"] = value{build / all, len(ls.byName["kernel_us"])}
	}
}
