package bench

import (
	"fmt"

	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/trace"
)

// This file is the one path from a configuration to a table: a table, curve
// or pinned file is a suite of configurations, CollectRecords runs a suite
// through RunRecorded into a record.File, and internal/bench/record renders
// or gates the files. Nothing else executes a run on a table's behalf.

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
// alongside the (possibly new) build state. The build is raw, so the
// recorder and registry see only the kernel: the record — cycles, stats,
// trace digest — covers exactly the timed region and is bit-identical
// whether the build ran or was restored from images.
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

// Table2Suite is what a Table 2 row is rendered from: the sequential
// baseline, the heuristic run under scheme at each machine size, and the
// forced-migration run at the largest.
func Table2Suite(procs []int, scale int, scheme coherence.Kind) []Config {
	suite := []Config{{Baseline: true, Scale: scale, Scheme: scheme}}
	for _, p := range procs {
		suite = append(suite, Config{Procs: p, Scale: scale, Scheme: scheme})
	}
	return append(suite, Config{Procs: procs[len(procs)-1], Scale: scale, Scheme: scheme, Mode: rt.MigrateOnly})
}

// Table3Suite is what a Table 3 row (an M+C benchmark's) is rendered from:
// the heuristic run under each of the three coherence schemes at one
// machine size.
func Table3Suite(procs, scale int) []Config {
	var suite []Config
	for _, scheme := range coherence.Kinds() {
		suite = append(suite, Config{Procs: procs, Scale: scale, Scheme: scheme})
	}
	return suite
}

// CurveSuite is one benchmark's speedup curve: the baseline, then the
// heuristic, migrate-only and cache-only runs at each machine size.
func CurveSuite(procs []int, scale int, scheme coherence.Kind) []Config {
	suite := []Config{{Baseline: true, Scale: scale}}
	for _, p := range procs {
		for _, mode := range rt.Modes() {
			suite = append(suite, Config{Procs: p, Scale: scale, Scheme: scheme, Mode: mode})
		}
	}
	return suite
}

// PinnedSuite is the configuration suite each BENCH_<name>.json holds: the
// baseline, Table 3's three runs and the forced-migration run under local
// knowledge — everything both tables' columns at one machine size need.
func PinnedSuite(procs, scale int) []Config {
	suite := append([]Config{{Baseline: true, Scale: scale}}, Table3Suite(procs, scale)...)
	return append(suite, Config{Procs: procs, Scale: scale, Mode: rt.MigrateOnly})
}

// CollectRecords runs a suite for one benchmark, in order, and returns its
// record file. Every run must verify against the sequential reference; an
// unverified run is an error, not a record.
func CollectRecords(name string, suite []Config) (record.File, error) {
	info, ok := Get(name)
	if !ok {
		return record.File{}, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	f := record.File{Benchmark: name, Choice: info.Choice, Whole: info.Whole()}
	for _, cfg := range suite {
		res, rec := RunRecorded(info, cfg)
		if !res.Verified() {
			return record.File{}, fmt.Errorf("bench: %s [%s] check %#x != %#x",
				name, rec.Key(), res.Check, res.WantCheck)
		}
		f.Records = append(f.Records, rec)
	}
	return f, nil
}
