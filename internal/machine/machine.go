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
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Proc is one simulated processor: a serial virtual-time resource plus its
// section of the distributed heap. (Its software cache and coherence state
// are attached by the runtime layer.)
//
// The clock and busy accounts are atomics rather than mutex-guarded
// fields: under the simulator only the virtual-time-active thread ever
// calls Occupy or Reset, all on the scheduler's one control flow, so the
// updates never contend, while Clock and Busy may be read at any real-time
// moment by the metrics scraper on another goroutine. Occupy is still a
// true read-modify-write, so work is conserved for callers outside the
// scheduler too.
type Proc struct {
	ID   int
	Heap *mem.Heap

	clock atomic.Int64
	busy  atomic.Int64
}

// Occupy charges cycles of work on the processor starting no earlier than
// now, and returns the completion time (the thread's new clock).
func (p *Proc) Occupy(now, cycles int64) int64 {
	p.busy.Add(cycles)
	for {
		start := p.clock.Load()
		end := max(start, now) + cycles
		if p.clock.CompareAndSwap(start, end) {
			return end
		}
	}
}

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() int64 { return p.clock.Load() }

// Busy returns the total cycles of work charged to the processor.
func (p *Proc) Busy() int64 { return p.busy.Load() }

// Reset clears the processor's virtual time and busy accounting (used
// between the build and kernel phases of a benchmark).
func (p *Proc) Reset() {
	p.clock.Store(0)
	p.busy.Store(0)
}

// Config describes a simulated machine.
type Config struct {
	// Procs is the number of processors (1..gaddr.MaxProcs).
	Procs int
	// HeapBytesPerProc sizes each processor's heap section; zero means
	// 32 MB.
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
		cfg.HeapBytesPerProc = 32 << 20
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

// ResetClocks zeroes all processor clocks (keeping heap contents), so a
// benchmark can time its kernel separately from its build phase.
func (m *Machine) ResetClocks() {
	for _, p := range m.Procs {
		p.Reset()
	}
}

// Stats aggregates machine-wide event counters. The fields are
// metrics.Counters — atomically updated, so threads on any processor may
// bump them concurrently — which lets Bind expose the same hot-path
// counters through a metrics registry without double counting. Reset and
// Snapshot additionally serialize against each other (mu), so a snapshot
// taken mid-run — as the trace profiler does — never interleaves with a
// phase boundary's reset and observes half-cleared counters.
type Stats struct {
	mu              sync.Mutex
	PtrTests        metrics.Counter // locality checks executed
	Migrations      metrics.Counter // forward migrations
	Returns         metrics.Counter // return-stub migrations
	Futures         metrics.Counter // futurecalls issued
	Touches         metrics.Counter // touches executed
	CacheableReads  metrics.Counter // reads at cached sites
	CacheableWrites metrics.Counter // writes at cached sites
	RemoteReads     metrics.Counter // cacheable reads to remote addresses
	RemoteWrites    metrics.Counter // cacheable writes to remote addresses
	Misses          metrics.Counter // remote references paying a protocol round trip
	LineFetches     metrics.Counter // 64-byte line transfers
	PagesCached     metrics.Counter // cache page entries ever allocated
	Invalidations   metrics.Counter // invalidation messages (global scheme)
	StampChecks     metrics.Counter // timestamp round trips (bilateral scheme)
	FullFlushes     metrics.Counter // whole-cache invalidations (local scheme)
}

// Bind registers every Stats counter into the registry under its canonical
// olden_* name, so registry snapshots and exports carry the machine's
// statistics without a second set of increments on the hot path.
func (s *Stats) Bind(reg *metrics.Registry) {
	reg.RegisterCounter("olden_ptr_tests_total", &s.PtrTests)
	reg.RegisterCounter("olden_migrations_total", &s.Migrations)
	reg.RegisterCounter("olden_returns_total", &s.Returns)
	reg.RegisterCounter("olden_futures_spawned_total", &s.Futures)
	reg.RegisterCounter("olden_futures_touched_total", &s.Touches)
	reg.RegisterCounter("olden_cacheable_reads_total", &s.CacheableReads)
	reg.RegisterCounter("olden_cacheable_writes_total", &s.CacheableWrites)
	reg.RegisterCounter("olden_remote_reads_total", &s.RemoteReads)
	reg.RegisterCounter("olden_remote_writes_total", &s.RemoteWrites)
	reg.RegisterCounter("olden_cache_misses_total", &s.Misses)
	reg.RegisterCounter("olden_line_fetches_total", &s.LineFetches)
	reg.RegisterCounter("olden_pages_cached_total", &s.PagesCached)
	reg.RegisterCounter("olden_invalidation_msgs_total", &s.Invalidations)
	reg.RegisterCounter("olden_stamp_checks_total", &s.StampChecks)
	reg.RegisterCounter("olden_full_flushes_total", &s.FullFlushes)
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

// Reset zeroes every counter. It is safe against concurrent Snapshot calls
// (and against concurrent atomic updates, which simply land in the fresh
// epoch or the cleared one).
func (s *Stats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.PtrTests.Store(0)
	s.Migrations.Store(0)
	s.Returns.Store(0)
	s.Futures.Store(0)
	s.Touches.Store(0)
	s.CacheableReads.Store(0)
	s.CacheableWrites.Store(0)
	s.RemoteReads.Store(0)
	s.RemoteWrites.Store(0)
	s.Misses.Store(0)
	s.LineFetches.Store(0)
	s.PagesCached.Store(0)
	s.Invalidations.Store(0)
	s.StampChecks.Store(0)
	s.FullFlushes.Store(0)
}

// Snapshot copies the counters into a plain struct for reporting. It may be
// called mid-run: individual counters are read atomically, and the mutex
// keeps the whole snapshot on one side of any concurrent Reset.
func (s *Stats) Snapshot() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StatsSnapshot{
		PtrTests:        s.PtrTests.Load(),
		Migrations:      s.Migrations.Load(),
		Returns:         s.Returns.Load(),
		Futures:         s.Futures.Load(),
		Touches:         s.Touches.Load(),
		CacheableReads:  s.CacheableReads.Load(),
		CacheableWrites: s.CacheableWrites.Load(),
		RemoteReads:     s.RemoteReads.Load(),
		RemoteWrites:    s.RemoteWrites.Load(),
		Misses:          s.Misses.Load(),
		LineFetches:     s.LineFetches.Load(),
		PagesCached:     s.PagesCached.Load(),
		Invalidations:   s.Invalidations.Load(),
		StampChecks:     s.StampChecks.Load(),
		FullFlushes:     s.FullFlushes.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	PtrTests        int64
	Migrations      int64
	Returns         int64
	Futures         int64
	Touches         int64
	CacheableReads  int64
	CacheableWrites int64
	RemoteReads     int64
	RemoteWrites    int64
	Misses          int64
	LineFetches     int64
	PagesCached     int64
	Invalidations   int64
	StampChecks     int64
	FullFlushes     int64
}

// RemoteRefs returns the total number of cacheable references to remote
// addresses (the denominator of Table 3's miss percentages).
func (s StatsSnapshot) RemoteRefs() int64 { return s.RemoteReads + s.RemoteWrites }

// MissPct returns misses as a percentage of remote references, or zero when
// there were none.
func (s StatsSnapshot) MissPct() float64 {
	r := s.RemoteRefs()
	if r == 0 {
		return 0
	}
	return 100 * float64(s.Misses) / float64(r)
}
