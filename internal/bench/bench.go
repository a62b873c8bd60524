// Package bench is the shared harness for the ten Olden benchmarks
// (paper Table 1): registration, configuration, result reporting and the
// configuration suites the paper's tables are collected from.
package bench

import (
	"sort"
	"sync"

	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/trace"
)

// Config selects how one benchmark run executes.
type Config struct {
	// Procs is the simulated machine size (1..32 in the paper).
	Procs int
	// Scheme is the coherence scheme (Table 2 uses local knowledge;
	// Table 3 compares all three).
	Scheme coherence.Kind
	// Mode optionally overrides the heuristic's per-site mechanisms
	// (Table 2's last column forces MigrateOnly).
	Mode rt.Mode
	// Baseline runs the "true sequential implementation": one
	// processor, no pointer-test/future overhead. Procs is ignored.
	Baseline bool
	// Scale divides the paper's problem size: 1 reproduces Table 1's
	// sizes, 8 runs 1/8-size problems, etc. Zero means DefaultScale.
	Scale int
	// Trace, when non-nil, records the run's simulation events into the
	// given recorder. ResetForKernel (called by kernel-timed benchmarks)
	// clears it along with the statistics, so the recorded trace covers
	// exactly the timed region.
	Trace *trace.Recorder
	// Metrics, when non-nil, binds the run's counters into the given
	// registry. Like Trace it is cleared by ResetForKernel and charges no
	// simulated cycles: makespans are identical with or without it.
	Metrics *metrics.Registry
	// RuntimeHook, when non-nil, observes the runtime a Run constructs
	// internally, right after creation. Differential tests use it to
	// fingerprint final heap contents; profilers use it for per-site
	// statistics.
	RuntimeHook func(*rt.Runtime)
	// OnPhase, when non-nil, brackets each execution phase RunPhased
	// goes through ("build", "restore_build", "kernel", or "run" for the
	// unphased fallback): it is called at phase start and the returned
	// func at phase end. The serving layer hangs per-phase tracing spans
	// off it; it runs on the host clock and charges no simulated cycles.
	OnPhase func(name string) func()
}

// DefaultScale keeps default runs comfortably fast; `-scale 1` in
// cmd/oldenbench reproduces the paper's sizes.
const DefaultScale = 16

func (c Config) normalize() Config {
	if c.Scale <= 0 {
		c.Scale = DefaultScale
	}
	if c.Baseline {
		c.Procs = 1
	}
	if c.Procs <= 0 {
		c.Procs = 1
	}
	return c
}

// NewRuntime builds the runtime for a run.
func (c Config) NewRuntime() *rt.Runtime { return c.NewRuntimeWithHeap(0) }

// NewRuntimeWithHeap builds the runtime with an explicit per-processor heap
// size (benchmarks at paper-scale sizes need more than the default).
func (c Config) NewRuntimeWithHeap(heapBytes uint32) *rt.Runtime {
	c = c.normalize()
	r := rt.New(rt.Config{
		Procs:            c.Procs,
		Scheme:           c.Scheme,
		Mode:             c.Mode,
		NoOverhead:       c.Baseline,
		HeapBytesPerProc: heapBytes,
		Trace:            c.Trace,
		Metrics:          c.Metrics,
	})
	if c.RuntimeHook != nil {
		c.RuntimeHook(r)
	}
	return r
}

// Scaled divides a paper-scale quantity by the configured scale, keeping a
// sensible floor.
func (c Config) Scaled(paper, floor int) int {
	c = c.normalize()
	v := paper / c.Scale
	if v < floor {
		return floor
	}
	return v
}

// Result is the outcome of one benchmark run.
type Result struct {
	Name   string
	Procs  int
	Cycles int64 // makespan of the timed region
	Stats  machine.Stats
	Pages  int64 // cumulative pages cached (Table 3)
	// Check and WantCheck are the parallel run's checksum and the
	// sequential reference's; equal means verified.
	Check     uint64
	WantCheck uint64
}

// Verified reports whether the run produced the reference answer.
func (r Result) Verified() bool { return r.Check == r.WantCheck }

// Info describes a registered benchmark for Table 1.
type Info struct {
	Name        string
	Description string
	PaperSize   string // problem size from Table 1
	Choice      string // "M" or "M+C", the heuristic choice in Table 2
	Whole       bool   // whole-program timing (the W rows)
	Run         func(Config) Result
	// Source is the benchmark's mini-C kernel (the package's
	// KernelSource), when it has one; the phase-slicing pass reads it.
	Source string
	// Phased exposes the benchmark's build/kernel split, when the
	// benchmark is kernel-timed. Run must be exactly Phased.Kernel
	// composed after Phased.Build on a fresh runtime.
	Phased *Phased
}

// Phased is a kernel-timed benchmark split at its ResetForKernel
// boundary, the seam the phase cache reuses (Info.BuildKey).
type Phased struct {
	// Build materializes the problem instance on the runtime (raw heap
	// API, no simulated accesses) and returns the build state the kernel
	// needs: addresses, sizes, the reference answer. The state must be
	// immutable and free of references to the runtime or configuration —
	// a later run with a different coherence scheme reuses it verbatim.
	Build func(Config, *rt.Runtime) any
	// Kernel calls ResetForKernel, runs and times the kernel, and
	// verifies the result. It must not mutate the build state.
	Kernel func(Config, *rt.Runtime, any) Result
}

var (
	regMu    sync.Mutex
	registry = map[string]Info{}
)

// Register enrolls a benchmark; called from each benchmark package's init.
func Register(info Info) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic("bench: duplicate benchmark " + info.Name)
	}
	registry[info.Name] = info
}

// Get returns a registered benchmark.
func Get(name string) (Info, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	info, ok := registry[name]
	return info, ok
}

// Names returns the registered benchmark names in Table 1's order where
// known, then alphabetically.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return record.BenchLess(names[i], names[j]) })
	return names
}
