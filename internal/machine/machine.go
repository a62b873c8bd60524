// Package machine simulates the distributed-memory SPMD machine Olden runs
// on (a Thinking Machines CM-5 in the paper).
//
// Simulation model: every logical Olden thread carries its own virtual
// clock, and every simulated processor is a serial virtual-time resource.
// Charging `cycles` of work on processor P at thread time `now` performs
//
//	start  = max(P.clock, now)
//	P.clock = start + cycles
//	now'    = P.clock
//
// so two threads charging the same processor serialize in virtual time.
// Threads never overlap in real time either: the scheduler (LoopScheduler)
// runs them as coroutines of one goroutine, one at a time, smallest clock
// first. Message latencies advance only the thread clock; message *service*
// (a remote line fetch, a migration receive) occupies the serving
// processor, which is what makes hot homes — the root of a shared tree,
// say — serialize and bottleneck, exactly the phenomenon the paper's
// heuristic avoids (§4.3, Figure 5).
//
// The makespan of a run is the maximum processor clock when the root thread
// finishes; speedup is the ratio of the sequential baseline's cycles to the
// makespan.
package machine

import (
	"fmt"
	"strconv"

	"repro/internal/gaddr"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Proc is one simulated processor: a serial virtual-time resource plus its
// section of the distributed heap. (Its software cache and coherence state
// are attached by the runtime layer.)
//
// The clock and busy accounts are plain integers. A machine belongs to one
// run and a run has one thread of control: only the virtual-time-active
// thread calls Occupy, and Clock and Busy are read by the goroutine that
// called Run after it returned (Makespan, and the run's own registry at
// snapshot time).
type Proc struct {
	ID   int
	Heap *mem.Heap

	clock int64
	busy  int64
}

// Occupy charges cycles of work on the processor starting no earlier than
// now, and returns the completion time (the thread's new clock).
func (p *Proc) Occupy(now, cycles int64) int64 {
	p.busy += cycles
	p.clock = max(p.clock, now) + cycles
	return p.clock
}

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() int64 { return p.clock }

// Busy returns the total cycles of work charged to the processor.
func (p *Proc) Busy() int64 { return p.busy }

// Config describes a simulated machine.
type Config struct {
	// Procs is the number of processors (1..gaddr.MaxProcs).
	Procs int
	// HeapBytesPerProc sizes each processor's heap section; zero means
	// gaddr.MaxOffset (64 MiB), the most a 26-bit offset addresses. A
	// section's storage grows only as it allocates.
	HeapBytesPerProc uint32
	// Cost is the cycle-cost model; the zero value means DefaultCost.
	Cost Cost
}

// Machine is the simulated multiprocessor.
type Machine struct {
	Cost  Cost
	Procs []*Proc
	Stats Stats
	// Tracer, when non-nil, records simulation events (migrations, cache
	// misses, coherence traffic) for the trace/profile layer. Nil — the
	// default — disables recording; every emit point guards on it.
	Tracer *trace.Recorder
	// Metrics, when non-nil, is the metrics registry the machine's
	// statistics are bound into (see Stats.Bind) and that the runtime and
	// coherence layers register their own counters with. Nil — the
	// default — disables registry recording; the Stats counters
	// themselves are always live.
	Metrics *metrics.Registry
}

// New builds a machine.
func New(cfg Config) *Machine {
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("machine: invalid processor count %d", cfg.Procs))
	}
	if cfg.HeapBytesPerProc == 0 {
		cfg.HeapBytesPerProc = gaddr.MaxOffset
	}
	if cfg.Cost == (Cost{}) {
		cfg.Cost = DefaultCost()
	}
	m := &Machine{Cost: cfg.Cost}
	for i := 0; i < cfg.Procs; i++ {
		m.Procs = append(m.Procs, &Proc{ID: i, Heap: mem.NewHeap(i, cfg.HeapBytesPerProc)})
	}
	return m
}

// P returns the number of processors.
func (m *Machine) P() int { return len(m.Procs) }

// Makespan returns the maximum processor clock: the simulated running time
// of everything executed so far.
func (m *Machine) Makespan() int64 {
	var mk int64
	for _, p := range m.Procs {
		if c := p.Clock(); c > mk {
			mk = c
		}
	}
	return mk
}

// TotalBusy returns the sum of busy cycles over all processors.
func (m *Machine) TotalBusy() int64 {
	var b int64
	for _, p := range m.Procs {
		b += p.Busy()
	}
	return b
}

// Stats are the machine-wide event counts of one run: plain integers,
// bumped by the run's one thread of control and read once Run has returned
// (see Proc). Results and records carry a copy.
type Stats struct {
	PtrTests        int64 // locality checks executed
	Migrations      int64 // forward migrations
	Returns         int64 // return-stub migrations
	Futures         int64 // futurecalls issued
	Touches         int64 // touches executed
	CacheableReads  int64 // reads at cached sites
	CacheableWrites int64 // writes at cached sites
	RemoteReads     int64 // cacheable reads to remote addresses
	RemoteWrites    int64 // cacheable writes to remote addresses
	Misses          int64 // remote references paying a protocol round trip
	LineFetches     int64 // 64-byte line transfers
	PagesCached     int64 // cache page entries ever allocated
	Invalidations   int64 // invalidation messages (global scheme)
	StampChecks     int64 // timestamp round trips (bilateral scheme)
	FullFlushes     int64 // whole-cache invalidations (local scheme)
}

// BindCounter registers the run-owned count *v under (name, labels) as a
// counter the registry reads at snapshot time, so the hot path pays a plain
// increment and the dump still carries the count. The registry must be the
// run's own: it reads *v without synchronisation.
func BindCounter(reg *metrics.Registry, name string, v *int64, labels ...metrics.Label) {
	reg.RegisterFunc(name, metrics.KindCounter, func() int64 { return *v }, labels...)
}

// Bind registers every Stats counter into the registry under its canonical
// olden_* name.
func (s *Stats) Bind(reg *metrics.Registry) {
	BindCounter(reg, "olden_ptr_tests_total", &s.PtrTests)
	BindCounter(reg, "olden_migrations_total", &s.Migrations)
	BindCounter(reg, "olden_returns_total", &s.Returns)
	BindCounter(reg, "olden_futures_spawned_total", &s.Futures)
	BindCounter(reg, "olden_futures_touched_total", &s.Touches)
	BindCounter(reg, "olden_cacheable_reads_total", &s.CacheableReads)
	BindCounter(reg, "olden_cacheable_writes_total", &s.CacheableWrites)
	BindCounter(reg, "olden_remote_reads_total", &s.RemoteReads)
	BindCounter(reg, "olden_remote_writes_total", &s.RemoteWrites)
	BindCounter(reg, "olden_cache_misses_total", &s.Misses)
	BindCounter(reg, "olden_line_fetches_total", &s.LineFetches)
	BindCounter(reg, "olden_pages_cached_total", &s.PagesCached)
	BindCounter(reg, "olden_invalidation_msgs_total", &s.Invalidations)
	BindCounter(reg, "olden_stamp_checks_total", &s.StampChecks)
	BindCounter(reg, "olden_full_flushes_total", &s.FullFlushes)
}

// BindProcs registers per-processor read-through gauges (cumulative cache
// pages allocated is bound by the runtime, which owns the caches). Here the
// machine contributes each processor's busy-cycle account.
func (m *Machine) BindProcs(reg *metrics.Registry) {
	for _, p := range m.Procs {
		p := p
		reg.RegisterFunc("olden_proc_busy_cycles", metrics.KindGauge,
			p.Busy, metrics.L("proc", strconv.Itoa(p.ID)))
	}
}

// Snapshot returns a copy of the counters for reporting.
func (s *Stats) Snapshot() Stats { return *s }

// RemoteRefs returns the total number of cacheable references to remote
// addresses (the denominator of Table 3's miss percentages).
func (s Stats) RemoteRefs() int64 { return s.RemoteReads + s.RemoteWrites }

// MissPct returns misses as a percentage of remote references, or zero when
// there were none.
func (s Stats) MissPct() float64 {
	r := s.RemoteRefs()
	if r == 0 {
		return 0
	}
	return 100 * float64(s.Misses) / float64(r)
}
