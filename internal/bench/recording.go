package bench

import (
	"fmt"
	"sync"

	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/trace"
)

// This file is the single code path between the human-readable tables and
// the persistent record pipeline: every run the table renderers execute
// goes through execute(), and when a run observer is installed each run
// also produces a record.RunRecord. With no observer the path is exactly
// info.Run — no registry, no recorder, no overhead — which keeps default
// oldenbench output byte-identical to the pre-recording harness.

var (
	obsMu       sync.Mutex
	runObserver func(record.RunRecord)
)

// SetRunObserver installs fn to receive a RunRecord for every benchmark
// run the harness executes (tables, speedup curves, and CollectRecords).
// Passing nil uninstalls the observer. cmd/oldenbench's -json flag uses
// this to stream records to stdout while the tables render to stderr.
func SetRunObserver(fn func(record.RunRecord)) {
	obsMu.Lock()
	runObserver = fn
	obsMu.Unlock()
}

func observer() func(record.RunRecord) {
	obsMu.Lock()
	defer obsMu.Unlock()
	return runObserver
}

// execute runs one benchmark configuration for a table renderer. It is
// info.Run when no observer is installed, and the recorded path otherwise.
func execute(info Info, cfg Config) Result {
	fn := observer()
	if fn == nil {
		return info.Run(cfg)
	}
	res, rec := RunRecorded(info, cfg)
	fn(rec)
	return res
}

// recorded is the one recorded-run constructor: it attaches a metrics
// registry and trace recorder (unless the caller supplied its own),
// executes the configuration through run, and assembles the persistent
// record from the result. The two exported entry points differ only in
// the execution path they pass as run.
func recorded(info Info, cfg Config, run func(Config) Result) (Result, record.RunRecord) {
	cfg = cfg.normalize()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.New(0)
	}
	res := run(cfg)
	return res, record.RunRecord{
		Benchmark:   info.Name,
		Baseline:    cfg.Baseline,
		Procs:       cfg.Procs,
		Scheme:      cfg.Scheme.String(),
		Mode:        cfg.Mode.String(),
		Scale:       cfg.Scale,
		Cycles:      res.Cycles,
		Verified:    res.Verified(),
		Pages:       res.Pages,
		Stats:       res.Stats,
		MissPct:     res.Stats.MissPct(),
		Metrics:     cfg.Metrics.Snapshot().Flat(),
		TraceDigest: cfg.Trace.Digest().String(),
	}
}

// RunRecorded executes one configuration with a metrics registry and trace
// recorder attached (unless the caller supplied its own) and returns the
// result alongside its persistent record. Because metrics and tracing
// charge no simulated cycles, the recorded run's makespan is identical to
// an unobserved one.
func RunRecorded(info Info, cfg Config) (Result, record.RunRecord) {
	return recorded(info, cfg, info.Run)
}

// RunPhasedRecorded is RunRecorded through the phased path: it executes
// one configuration, reusing bs when it fits, and returns the record
// alongside the (possibly new) build state. ResetForKernel clears the
// recorder and registry at the phase boundary, so the record — cycles,
// stats, trace digest — covers exactly the timed region and is
// bit-identical whether the build ran or was restored from images.
func RunPhasedRecorded(info Info, cfg Config, bs *BuildState) (Result, record.RunRecord, *BuildState, bool, error) {
	var (
		nbs    *BuildState
		reused bool
		err    error
	)
	res, rec := recorded(info, cfg, func(c Config) (r Result) {
		r, nbs, reused, err = RunPhased(info, c, bs)
		return r
	})
	return res, rec, nbs, reused, err
}

// recordConfigs is the pinned configuration suite each BENCH_<name>.json
// holds: the sequential baseline, the heuristic run under each of the
// three coherence schemes, and the forced-migration run — everything
// Table 2's and Table 3's columns at one machine size need.
func recordConfigs(procs, scale int) []Config {
	return []Config{
		{Baseline: true, Scale: scale},
		{Procs: procs, Scale: scale, Scheme: coherence.LocalKnowledge},
		{Procs: procs, Scale: scale, Scheme: coherence.GlobalKnowledge},
		{Procs: procs, Scale: scale, Scheme: coherence.Bilateral},
		{Procs: procs, Scale: scale, Mode: rt.MigrateOnly},
	}
}

// CollectRecords runs the pinned suite for one benchmark and returns its
// record file. Every run must verify against the sequential reference;
// an unverified run is an error, not a record.
func CollectRecords(name string, procs, scale int) (record.File, error) {
	info, ok := Get(name)
	if !ok {
		return record.File{}, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	f := record.File{Benchmark: name, Choice: info.Choice, Whole: info.Whole}
	for _, cfg := range recordConfigs(procs, scale) {
		res, rec := RunRecorded(info, cfg)
		if !res.Verified() {
			return record.File{}, fmt.Errorf("bench: %s [%s] check %#x != %#x",
				name, rec.Key(), res.Check, res.WantCheck)
		}
		if fn := observer(); fn != nil {
			fn(rec)
		}
		f.Records = append(f.Records, rec)
	}
	return f, nil
}
