// Package rt is the Olden runtime: it executes logical Olden threads on the
// simulated machine, satisfying remote heap references by computation
// migration or software caching (paper §3), implementing futures with lazy
// task creation economics (§2), and invoking the coherence engine at every
// migration send/receive (Appendix A).
package rt

import (
	"fmt"
	"regexp"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Mechanism says how a dereference site satisfies remote references.
type Mechanism int

const (
	// Migrate moves the thread to the data (registers + PC + current
	// stack frame).
	Migrate Mechanism = iota
	// Cache brings the data to the thread through the software cache.
	Cache
)

// String names the mechanism.
func (m Mechanism) String() string {
	if m == Migrate {
		return "migrate"
	}
	return "cache"
}

// Mode optionally overrides every site's mechanism, machine-wide. The
// paper's Table 2 compares the heuristic's choices against migrate-only.
type Mode int

const (
	// Heuristic uses each site's own mechanism (as the compiler chose).
	Heuristic Mode = iota
	// MigrateOnly forces computation migration everywhere.
	MigrateOnly
	// CacheOnly forces software caching everywhere.
	CacheOnly
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case MigrateOnly:
		return "migrate-only"
	case CacheOnly:
		return "cache-only"
	}
	return "heuristic"
}

// Modes lists every mechanism-override mode in definition order — the
// enumeration the CLIs and the serving layer share.
func Modes() []Mode { return []Mode{Heuristic, MigrateOnly, CacheOnly} }

// ParseMode maps a mode name (as printed by Mode.String) back to its Mode.
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes() {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("rt: unknown mode %q (want heuristic, migrate-only or cache-only)", s)
}

// Site is one pointer-dereference site in the "compiled" program, tagged
// with the mechanism the compile-time heuristic selected for it. Sites
// accumulate per-site statistics, the view a profiler of the real system
// would give: how often the site ran, how often it went remote, and how
// many migrations it triggered.
type Site struct {
	Name string
	Mech Mechanism

	// The counters, like reg and traceID below, are plain fields of the
	// run that uses the site: only the virtual-time-active thread touches
	// them (an access runs after a sync). A Site value may serve one run
	// after another, never two at once.
	reads      int64
	writes     int64
	remote     int64
	migrations int64

	// reg is the runtime this site was last registered with.
	reg *Runtime
	// traceID is the site's interned id in the runtime's trace recorder
	// (-1 when tracing is off), assigned at registration.
	traceID int32
}

// SiteStats is a point-in-time copy of a site's counters.
type SiteStats struct {
	Name       string
	Mech       Mechanism
	Reads      int64
	Writes     int64
	Remote     int64
	Migrations int64
}

// Stats snapshots the site's counters.
func (s *Site) Stats() SiteStats {
	return SiteStats{
		Name:       s.Name,
		Mech:       s.Mech,
		Reads:      s.reads,
		Writes:     s.writes,
		Remote:     s.remote,
		Migrations: s.migrations,
	}
}

// Config describes a runtime instance.
type Config struct {
	// Procs is the simulated machine size.
	Procs int
	// Scheme selects the coherence scheme (default: local knowledge).
	Scheme coherence.Kind
	// Mode optionally overrides site mechanisms (default: heuristic).
	Mode Mode
	// NoOverhead disables the charges for pointer tests, cache lookups
	// and future bookkeeping: the "true sequential implementation"
	// baseline the paper divides by is the P=1 run with NoOverhead set.
	NoOverhead bool
	// HeapBytesPerProc sizes heap sections (0 ⇒ gaddr.MaxOffset, 64 MiB,
	// the machine default).
	HeapBytesPerProc uint32
	// Trace, when non-nil, records every simulation event (migrations,
	// cache traffic, coherence protocol actions, thread lifecycle) into
	// the given recorder. Nil — the default — disables recording; the
	// cost model and all statistics are unaffected either way.
	Trace *trace.Recorder
	// Metrics, when non-nil, is a registry the runtime binds the
	// machine's statistics into and registers its own counters and
	// latency histograms with (cache hits, miss and migration transit
	// distributions, per-processor cache occupancy). Nil — the default —
	// disables registry recording; simulated cycles are identical either
	// way, since registering and updating metrics charges no simulated
	// work. The registry must be this run's own and be read only once Run
	// has returned: its counters read the run's plain integers.
	Metrics *metrics.Registry
}

// Runtime binds a machine, its per-processor software caches, and a
// coherence engine.
type Runtime struct {
	M      *machine.Machine
	Caches []*cache.Cache
	Coh    *coherence.Engine
	Mode   Mode
	// Sched serializes all threads in virtual-time order, making every
	// run deterministic.
	Sched *machine.LoopScheduler
	// Overhead is false for the sequential baseline.
	Overhead bool

	// dirty holds each processor's write-tracking state (Appendix A
	// tracks writes per processor: "a vector of dirty bits for each
	// shared page"); a migration leaving the processor releases it.
	// Only the virtual-time-active thread touches these, so no lock is
	// needed — the scheduler's hand-off orders all accesses.
	dirty []coherence.DirtySet

	// sites indexes every Site that has executed on this runtime by
	// name; siteFaults records the names that break the site contract
	// (registerSite). Like dirty, these are only touched by the
	// virtual-time-active thread.
	sites      map[string]*Site
	siteFaults []string

	// Registry-owned histograms beyond the machine's aggregate
	// statistics; the handles are nil when Config.Metrics was nil (the
	// nil-safe disabled state).
	mMissLat    *metrics.Histogram
	mMigLat     *metrics.Histogram
	mReturnLat  *metrics.Histogram
	mTouchBlock *metrics.Histogram
}

// New builds a runtime and its machine.
func New(cfg Config) *Runtime {
	m := machine.New(machine.Config{
		Procs:            cfg.Procs,
		HeapBytesPerProc: cfg.HeapBytesPerProc,
	})
	m.Tracer = cfg.Trace
	m.Metrics = cfg.Metrics
	caches := make([]*cache.Cache, cfg.Procs)
	for i := range caches {
		caches[i] = cache.New()
	}
	if reg := cfg.Metrics; reg != nil {
		m.Stats.Bind(reg)
		m.BindProcs(reg)
		// A cached reference that pays no round trip is a hit, and every
		// line fetch fills one line.
		reg.RegisterFunc("olden_cache_hits_total", metrics.KindCounter,
			func() int64 { return m.Stats.RemoteRefs() - m.Stats.Misses })
		machine.BindCounter(reg, "olden_line_fills_total", &m.Stats.LineFetches)
		for i, c := range caches {
			c := c
			reg.RegisterFunc("olden_cache_pages_allocated", metrics.KindCounter,
				c.PagesAllocated, metrics.L("proc", fmt.Sprint(i)))
		}
	}
	dirty := make([]coherence.DirtySet, cfg.Procs)
	for i := range dirty {
		dirty[i] = coherence.DirtySet{}
	}
	sched := machine.NewLoopScheduler()
	sched.SetTracer(cfg.Trace)
	r := &Runtime{
		M:        m,
		Caches:   caches,
		Coh:      coherence.New(cfg.Scheme, m, caches),
		Mode:     cfg.Mode,
		Sched:    sched,
		Overhead: !cfg.NoOverhead,
		dirty:    dirty,
		sites:    map[string]*Site{},

		mMissLat:    cfg.Metrics.Histogram("olden_miss_latency_cycles"),
		mMigLat:     cfg.Metrics.Histogram("olden_migration_transit_cycles", metrics.L("kind", "forward")),
		mReturnLat:  cfg.Metrics.Histogram("olden_migration_transit_cycles", metrics.L("kind", "return")),
		mTouchBlock: cfg.Metrics.Histogram("olden_touch_blocked_cycles"),
	}
	return r
}

// Metrics returns the runtime's metrics registry, or nil when registry
// recording is off.
func (r *Runtime) Metrics() *metrics.Registry { return r.M.Metrics }

// Tracer returns the runtime's trace recorder, or nil when tracing is off.
func (r *Runtime) Tracer() *trace.Recorder { return r.M.Tracer }

// siteNameRE is the dotted "<bench>.<var>" rule for site names: at least
// two identifier segments, e.g. "treeadd.child" or "fig2.walk".
var siteNameRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+$`)

// registerSite indexes a site by name on first use with this runtime. A
// name that is empty or not dotted, or that a distinct Site value already
// took — the two sites' statistics would silently merge (Table 3) — is
// recorded as a fault instead.
func (r *Runtime) registerSite(s *Site) {
	if !siteNameRE.MatchString(s.Name) {
		r.siteFaults = append(r.siteFaults, fmt.Sprintf("site name %q is not a dotted <bench>.<var> name", s.Name))
	}
	prev, ok := r.sites[s.Name]
	switch {
	case !ok:
		r.sites[s.Name] = s
	case prev != s:
		r.siteFaults = append(r.siteFaults, fmt.Sprintf("site name %q is taken by a distinct Site", s.Name))
	}
}

// SiteStats snapshots every site that has executed on this runtime,
// sorted by name — the per-site view behind Table 3's statistics.
func (r *Runtime) SiteStats() []SiteStats {
	names := make([]string, 0, len(r.sites))
	for n := range r.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]SiteStats, 0, len(names))
	for _, n := range names {
		out = append(out, r.sites[n].Stats())
	}
	return out
}

// SiteFaults lists, in registration order, each site contract fault on
// this runtime: a name that is empty or not dotted "<bench>.<var>", and a
// name a distinct Site value took first. Empty means every site that ran
// is named and counted apart.
func (r *Runtime) SiteFaults() []string { return slices.Clone(r.siteFaults) }

// P returns the machine size.
func (r *Runtime) P() int { return r.M.P() }

// Run executes f as the root Olden thread on processor start and returns
// the simulated makespan once every thread has exited — futures included,
// touched or not. The calling goroutine is the scheduler's dispatcher for
// the duration: every thread body runs on it as a coroutine, and none is
// left behind when Run returns. It is the entry point of an "Olden
// program"; a Runtime runs one program at a time.
func (r *Runtime) Run(start int, f func(t *Thread)) int64 {
	if start < 0 || start >= r.P() {
		panic(fmt.Sprintf("rt: start processor %d out of range", start))
	}
	t := &Thread{
		rt:     r,
		loc:    start,
		frames: make([]frame, 1),
	}
	t.se = r.Sched.Register(0)
	r.Sched.Main(t.se, func() {
		f(t)
		t.Finish()
		r.Sched.Exit(t.se)
	})
	return r.M.Makespan()
}

// SnapshotHeaps captures every processor's heap section: heap contents
// alone, none of the clocks, statistics or caches a Run accumulates.
func (r *Runtime) SnapshotHeaps() []mem.HeapImage {
	imgs := make([]mem.HeapImage, 0, len(r.M.Procs))
	for _, p := range r.M.Procs {
		imgs = append(imgs, p.Heap.Snapshot())
	}
	return imgs
}

// RestoreHeaps overwrites the processors' heap sections with previously
// captured images. The machine must have the same number of processors
// the snapshot was taken on.
func (r *Runtime) RestoreHeaps(imgs []mem.HeapImage) {
	if len(imgs) != len(r.M.Procs) {
		panic(fmt.Sprintf("rt: restoring %d heap images onto %d processors", len(imgs), len(r.M.Procs)))
	}
	for i, p := range r.M.Procs {
		p.Heap.Restore(imgs[i])
	}
}

// HeapFingerprint hashes the allocated contents of every processor's heap
// section into one order-sensitive digest. Two runs that built and mutated
// the same logical data structure — whatever coherence scheme or machine
// size carried the writes — must agree on it; the differential tests use
// this to prove the three schemes are observationally equivalent.
func (r *Runtime) HeapFingerprint() uint64 {
	var h uint64 = 14695981039346656037
	for _, p := range r.M.Procs {
		h = p.Heap.FoldFingerprint(h)
	}
	return h
}

// PagesCachedTotal sums the cumulative page allocations over all caches
// (Table 3's "Total Pages Cached").
func (r *Runtime) PagesCachedTotal() int64 {
	var n int64
	for _, c := range r.Caches {
		n += c.PagesAllocated()
	}
	return n
}
