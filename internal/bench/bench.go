// Package bench is the shared harness for the ten Olden benchmarks
// (paper Table 1): registration, configuration, result reporting and the
// configuration suites the paper's tables are collected from.
package bench

import (
	"fmt"
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
	// given recorder. A kernel-timed benchmark's build is raw and emits
	// nothing, so the recorded trace covers exactly the timed region.
	Trace *trace.Recorder
	// Metrics, when non-nil, binds the run's counters into the given
	// registry. Like Trace it sees only the timed region and charges no
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

// BlockedProc maps index i of n items onto one of p processors in a blocked
// distribution (Figure 2, left).
func BlockedProc(i, n, p int) int {
	if n <= 0 {
		return 0
	}
	q := i * p / n
	if q >= p {
		q = p - 1
	}
	return q
}

// CyclicProc maps index i onto p processors cyclically (Figure 2, right).
func CyclicProc(i, p int) int { return i % p }

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
	// Run executes one configuration. A whole-program benchmark supplies
	// it; Register derives a kernel-timed benchmark's from Phased.
	Run func(Config) Result
	// Source is the benchmark's mini-C kernel (the package's
	// KernelSource), when it has one; the phase-slicing pass reads it.
	Source string
	// Phased is the benchmark's build/kernel split, when the benchmark is
	// kernel-timed.
	Phased *Phased
}

// Whole reports whole-program timing (Table 2's W rows): the benchmark has
// no build/kernel split.
func (info Info) Whole() bool { return info.Phased == nil }

// Phased is a kernel-timed benchmark split at its raw build, the seam the
// phase cache reuses (Info.BuildKey).
type Phased struct {
	// Build materializes the problem instance on a fresh runtime through
	// the raw heap API and returns the build state the kernel needs:
	// addresses, sizes, the reference answer. It must leave the machine
	// pristine — no cycles, statistics or trace events — or the run fails.
	// The state must be immutable and free of references to the runtime or
	// configuration: a later run with a different coherence scheme reuses
	// it verbatim.
	Build func(Config, *rt.Runtime) any
	// Kernel runs and times the kernel and verifies the result. It must
	// not mutate the build state.
	Kernel func(Config, *rt.Runtime, any) Result
}

// build runs the benchmark's build on the fresh runtime r and fails unless
// the machine is still pristine: zero makespan, zero statistics, an empty
// trace. The raw heap API charges, counts and emits nothing, so anything
// else is a simulated access that would leak into the kernel's timing.
func (info Info) build(cfg Config, r *rt.Runtime) (any, error) {
	st := info.Phased.Build(cfg, r)
	if tr := r.Tracer(); r.M.Makespan() != 0 || r.M.Stats != (machine.Stats{}) || (tr != nil && tr.Len() != 0) {
		return nil, fmt.Errorf("bench: %s build made simulated accesses; build through the raw heap API", info.Name)
	}
	return st, nil
}

// runPhased is a kernel-timed benchmark's Run: the kernel after a build on
// a fresh runtime. A build that is not raw panics.
func (info Info) runPhased(cfg Config) Result {
	cfg = cfg.normalize()
	r := cfg.NewRuntime()
	st, err := info.build(cfg, r)
	if err != nil {
		panic(err)
	}
	return info.Phased.Kernel(cfg, r, st)
}

var (
	regMu    sync.Mutex
	registry = map[string]Info{}
)

// Register enrolls a benchmark; called from each benchmark package's init.
// A kernel-timed benchmark's Run is derived from its Phased split.
func Register(info Info) {
	if info.Phased != nil {
		info.Run = info.runPhased
	}
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
