package rt

import (
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/gaddr"
	"repro/internal/machine"
	"repro/internal/metrics"
)

// buildRemoteList allocates a two-node cross-processor list so a traversal
// generates remote references.
func buildRemoteList(r *Runtime) (gaddr.GP, gaddr.GP) {
	var a, b gaddr.GP
	r.Run(0, func(t *Thread) {
		site := &Site{Name: "mt.init", Mech: Cache}
		a = t.Alloc(0, 16)
		b = t.Alloc(1, 16)
		t.StoreInt(site, a, 0, 1)
		t.StoreInt(site, b, 0, 2)
	})
	return a, b
}

func TestMetricsRegistryRecordsRun(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Config{Procs: 2, Metrics: reg})
	a, b := buildRemoteList(r)
	site := &Site{Name: "mt.walk", Mech: Cache}
	// The build phase's remote store to b already missed and installed
	// b's line (write-through fills), so both kernel loads of b hit.
	r.Run(0, func(th *Thread) {
		th.LoadInt(site, a, 0) // local
		th.LoadInt(site, b, 0) // remote: hit
		th.LoadInt(site, b, 0) // remote: hit
	})
	snap := reg.Snapshot()

	// The machine statistics are bound into the registry under olden_*
	// names and agree with the Stats view.
	st := r.M.Stats.Snapshot()
	if sm, ok := snap.Get("olden_cache_misses_total"); !ok || sm.Value != st.Misses {
		t.Fatalf("olden_cache_misses_total = %+v, want %d", sm, st.Misses)
	}
	if sm, ok := snap.Get("olden_ptr_tests_total"); !ok || sm.Value != st.PtrTests {
		t.Fatalf("olden_ptr_tests_total = %+v, want %d", sm, st.PtrTests)
	}

	// The runtime's own meters: two hits (kernel), one miss with a
	// latency observation and one line fill (the build-phase store).
	if sm, _ := snap.Get("olden_cache_hits_total"); sm.Value != 2 {
		t.Fatalf("olden_cache_hits_total = %d, want 2", sm.Value)
	}
	if sm, _ := snap.Get("olden_line_fills_total"); sm.Value != 1 {
		t.Fatalf("olden_line_fills_total = %d, want 1", sm.Value)
	}
	sm, ok := snap.Get("olden_miss_latency_cycles")
	if !ok || sm.Hist == nil || sm.Hist.Count != 1 || sm.Hist.Sum <= 0 {
		t.Fatalf("olden_miss_latency_cycles = %+v, want one positive observation", sm)
	}
}

func TestMetricsMigrationAndProtocolCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Config{Procs: 2, Scheme: coherence.GlobalKnowledge, Metrics: reg})
	a, b := buildRemoteList(r)
	mig := &Site{Name: "mt.mig", Mech: Migrate}
	cch := &Site{Name: "mt.cch", Mech: Cache}
	r.Run(0, func(th *Thread) {
		th.LoadInt(cch, b, 0) // cache proc 1's line on proc 0
		CallVoid(th, func() {
			th.LoadInt(mig, b, 0)     // migrate 0→1
			th.StoreInt(cch, b, 8, 9) // dirty proc 1's page
		}) // return stub 1→0 releases the dirty page → invalidation + ack
		th.LoadInt(cch, a, 0)
	})
	snap := reg.Snapshot()
	scheme := metrics.L("scheme", "global")
	if sm, _ := snap.Get("olden_migrations_total"); sm.Value != 1 {
		t.Fatalf("olden_migrations_total = %d, want 1", sm.Value)
	}
	if sm, ok := snap.Get("olden_migration_transit_cycles", metrics.L("kind", "forward")); !ok || sm.Hist == nil || sm.Hist.Count != 1 {
		t.Fatalf("forward transit histogram = %+v, want 1 observation", sm)
	}
	if sm, ok := snap.Get("olden_migration_transit_cycles", metrics.L("kind", "return")); !ok || sm.Hist == nil || sm.Hist.Count != 1 {
		t.Fatalf("return transit histogram = %+v, want 1 observation", sm)
	}
	if sm, _ := snap.Get("olden_protocol_messages_total", scheme, metrics.L("type", "inval")); sm.Value != 1 {
		t.Fatalf("inval messages = %d, want 1", sm.Value)
	}
	if sm, _ := snap.Get("olden_ack_round_trips_total", scheme); sm.Value != 1 {
		t.Fatalf("ack round trips = %d, want 1", sm.Value)
	}
	if sm, _ := snap.Get("olden_lines_invalidated_total", scheme); sm.Value != 1 {
		t.Fatalf("lines invalidated = %d, want 1", sm.Value)
	}
}

// statsByName is the registry's view of machine.Stats: the olden_* name each
// field is dumped under (BENCH_*.json records carry exactly these).
func statsByName(s machine.Stats) map[string]int64 {
	return map[string]int64{
		"olden_ptr_tests_total":         s.PtrTests,
		"olden_migrations_total":        s.Migrations,
		"olden_returns_total":           s.Returns,
		"olden_futures_spawned_total":   s.Futures,
		"olden_futures_touched_total":   s.Touches,
		"olden_cacheable_reads_total":   s.CacheableReads,
		"olden_cacheable_writes_total":  s.CacheableWrites,
		"olden_remote_reads_total":      s.RemoteReads,
		"olden_remote_writes_total":     s.RemoteWrites,
		"olden_cache_misses_total":      s.Misses,
		"olden_line_fetches_total":      s.LineFetches,
		"olden_pages_cached_total":      s.PagesCached,
		"olden_invalidation_msgs_total": s.Invalidations,
		"olden_stamp_checks_total":      s.StampChecks,
		"olden_full_flushes_total":      s.FullFlushes,
	}
}

// TestRegistryReadsStats pins the read-through binding: the run bumps plain
// integers and the registry reads them at snapshot time, so after a run,
// right after ResetForKernel and after the kernel that follows, the dump
// carries every Stats field under its name with the value Stats.Snapshot
// reports, and the per-cache page counts add up to Stats.PagesCached.
func TestRegistryReadsStats(t *testing.T) {
	for _, kind := range coherence.Kinds() {
		reg := metrics.NewRegistry()
		r := New(Config{Procs: 2, Scheme: kind, Metrics: reg})
		a, b := buildRemoteList(r)
		mig := &Site{Name: "mt.readsmig", Mech: Migrate}
		cch := &Site{Name: "mt.readscch", Mech: Cache}
		phase := func() {
			r.Run(0, func(th *Thread) {
				f := Spawn(th, func(c *Thread) int64 { return c.LoadInt(mig, b, 0) })
				th.LoadInt(cch, b, 0)
				CallVoid(th, func() {
					th.LoadInt(mig, b, 0)
					th.StoreInt(cch, b, 8, 9)
				})
				th.LoadInt(cch, b, 8)
				th.StoreInt(cch, a, 0, f.Touch(th))
			})
		}
		check := func(when string, wantZero bool) {
			t.Helper()
			flat := reg.Snapshot().Flat()
			st := r.M.Stats.Snapshot()
			if (st == machine.Stats{}) != wantZero {
				t.Errorf("%v %s: stats = %+v, want zero: %v", kind, when, st, wantZero)
			}
			for name, want := range statsByName(st) {
				if got, ok := flat[name]; !ok || got != want {
					t.Errorf("%v %s: %s = %d (present %v), Stats says %d", kind, when, name, got, ok, want)
				}
			}
			var pages int64
			for p := range r.Caches {
				pages += flat[fmt.Sprintf("olden_cache_pages_allocated{proc=%q}", fmt.Sprint(p))]
			}
			if pages != st.PagesCached || pages != r.PagesCachedTotal() {
				t.Errorf("%v %s: per-cache pages %d, PagesCachedTotal %d, Stats.PagesCached %d",
					kind, when, pages, r.PagesCachedTotal(), st.PagesCached)
			}
		}
		phase()
		check("after the build run", false)
		r.ResetForKernel()
		check("after ResetForKernel", true)
		phase()
		check("after the kernel run", false)
	}
}

// TestResetForKernelResetsMetrics pins the epoch rule: ResetForKernel
// zeroes every count the run owns at its source — statistics, protocol
// meters, per-cache page counts, busy cycles — and the registry's own
// histograms, so a registry snapshot taken right after it is all zeros and
// a kernel-timed record cannot mix build-phase counts.
func TestResetForKernelResetsMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Config{Procs: 2, Metrics: reg})
	a, b := buildRemoteList(r)
	site := &Site{Name: "mt.build", Mech: Cache}
	r.Run(0, func(th *Thread) {
		th.LoadInt(site, b, 0)
		th.LoadInt(site, a, 0)
	})
	// The build phase cached a page, so the one count Registry.Reset
	// cannot reach on its own is live before the boundary.
	for _, s := range reg.Snapshot().Samples {
		if (s.Name == "olden_ptr_tests_total" || s.Name == "olden_pages_cached_total" ||
			s.ID() == `olden_cache_pages_allocated{proc="0"}`) && s.Value == 0 {
			t.Fatalf("build phase left %s at zero", s.ID())
		}
	}

	r.ResetForKernel()

	snap := reg.Snapshot()
	if len(snap.Samples) == 0 {
		t.Fatal("empty snapshot")
	}
	for _, s := range snap.Samples {
		if s.Value != 0 {
			t.Errorf("%s = %d after ResetForKernel, want 0", s.ID(), s.Value)
		}
		if s.Hist != nil && (s.Hist.Count != 0 || s.Hist.Sum != 0) {
			t.Errorf("%s histogram not cleared: %+v", s.ID(), s.Hist)
		}
	}

	// And the kernel epoch accumulates fresh counts.
	kernel := &Site{Name: "mt.kernel", Mech: Cache}
	r.Run(0, func(th *Thread) { th.LoadInt(kernel, b, 0) })
	if sm, _ := reg.Snapshot().Get("olden_ptr_tests_total"); sm.Value != 1 {
		t.Fatalf("kernel epoch ptr tests = %d, want exactly 1", sm.Value)
	}
}

// TestMetricsOffByDefault pins the disabled state: no registry, nil
// handles, identical simulation results.
func TestMetricsOffByDefault(t *testing.T) {
	run := func(reg *metrics.Registry) int64 {
		r := New(Config{Procs: 2, Metrics: reg})
		a, b := buildRemoteList(r)
		site := &Site{Name: "mt.off", Mech: Cache}
		return r.Run(0, func(th *Thread) {
			th.LoadInt(site, a, 0)
			th.LoadInt(site, b, 0)
		})
	}
	if r := New(Config{Procs: 1}); r.Metrics() != nil {
		t.Fatal("metrics must be off by default")
	}
	if off, on := run(nil), run(metrics.NewRegistry()); off != on {
		t.Fatalf("metrics recording changed the simulation: %d != %d cycles", off, on)
	}
}
