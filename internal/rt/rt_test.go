package rt

import (
	"runtime"
	"testing"

	"repro/internal/coherence"
	"repro/internal/gaddr"
)

var (
	siteMig   = &Site{Name: "test.mig", Mech: Migrate}
	siteCache = &Site{Name: "test.cache", Mech: Cache}
)

func newRT(procs int, scheme coherence.Kind) *Runtime {
	return New(Config{Procs: procs, Scheme: scheme, HeapBytesPerProc: 1 << 22})
}

func TestLocalLoadStore(t *testing.T) {
	r := newRT(2, coherence.LocalKnowledge)
	r.Run(0, func(th *Thread) {
		g := th.Alloc(0, 32)
		th.StoreInt(siteMig, g, 8, -42)
		if v := th.LoadInt(siteMig, g, 8); v != -42 {
			t.Errorf("local int = %d", v)
		}
		th.StoreFloat(siteCache, g, 16, 3.25)
		if v := th.LoadFloat(siteCache, g, 16); v != 3.25 {
			t.Errorf("local float = %v", v)
		}
		th.StorePtr(siteCache, g, 24, g)
		if v := th.LoadPtr(siteCache, g, 24); v != g {
			t.Errorf("local ptr = %v", v)
		}
	})
	if r.M.Stats.Migrations != 0 {
		t.Fatal("local accesses must not migrate")
	}
}

func TestMigrationOnRemoteAccess(t *testing.T) {
	r := newRT(4, coherence.LocalKnowledge)
	r.Run(0, func(th *Thread) {
		g := th.Alloc(3, 16)
		th.StoreInt(siteMig, g, 0, 7)
		if th.Loc() != 3 {
			t.Errorf("thread at %d; migration should move it to 3", th.Loc())
		}
		if v := th.LoadInt(siteMig, g, 0); v != 7 {
			t.Errorf("after migration read = %d", v)
		}
	})
	s := r.M.Stats.Snapshot()
	if s.Migrations != 1 {
		t.Fatalf("migrations = %d; want 1 (second access is local)", s.Migrations)
	}
	if s.PtrTests != 2 {
		t.Fatalf("pointer tests = %d; want 2", s.PtrTests)
	}
}

func TestCachedRemoteReadAndWriteThrough(t *testing.T) {
	r := newRT(2, coherence.LocalKnowledge)
	r.Run(0, func(th *Thread) {
		g := th.Alloc(1, 64)
		// Seed home memory through a cache-site store, which writes
		// through without moving the thread.
		th.StoreInt(siteCache, g, 0, 5)
		if th.Loc() != 0 {
			t.Fatal("cached store must not move the thread")
		}
		if v := th.LoadInt(siteCache, g, 0); v != 5 {
			t.Errorf("read-your-write = %d", v)
		}
		// The home copy must also be current (write-through).
		if v := r.M.Procs[1].Heap.LoadWord(g.Off()); v != 5 {
			t.Errorf("home copy = %d", v)
		}
	})
	s := r.M.Stats.Snapshot()
	if s.Migrations != 0 {
		t.Fatal("caching must not migrate")
	}
	if s.CacheableWrites != 1 || s.CacheableReads != 1 {
		t.Fatalf("cacheable w/r = %d/%d", s.CacheableWrites, s.CacheableReads)
	}
	if s.RemoteWrites != 1 || s.RemoteReads != 1 {
		t.Fatalf("remote w/r = %d/%d", s.RemoteWrites, s.RemoteReads)
	}
	if s.Misses != 1 {
		t.Fatalf("misses = %d; write fetches the line, read hits", s.Misses)
	}
}

func TestCacheHitOnSecondRead(t *testing.T) {
	r := newRT(2, coherence.LocalKnowledge)
	r.Run(0, func(th *Thread) {
		g := th.Alloc(1, 8)
		th.LoadInt(siteCache, g, 0)
		before := r.M.Stats.Misses
		th.LoadInt(siteCache, g, 0)
		if r.M.Stats.Misses != before {
			t.Error("second read must hit")
		}
	})
}

func TestLocalSchemeInvalidatesOnMigration(t *testing.T) {
	r := newRT(3, coherence.LocalKnowledge)
	r.Run(0, func(th *Thread) {
		g := th.Alloc(1, 8)
		th.LoadInt(siteCache, g, 0) // miss, line cached at 0
		misses := r.M.Stats.Misses
		th.MigrateTo(2)
		th.MigrateTo(0) // receive at 0 flushes the whole cache
		th.LoadInt(siteCache, g, 0)
		if r.M.Stats.Misses != misses+1 {
			t.Error("read after migration receive must miss again")
		}
	})
	if r.M.Stats.FullFlushes == 0 {
		t.Fatal("local scheme must flush on migration receive")
	}
}

func TestCallReturnStub(t *testing.T) {
	r := newRT(4, coherence.LocalKnowledge)
	r.Run(0, func(th *Thread) {
		g := th.Alloc(2, 16)
		v := Call(th, func() int64 {
			th.StoreInt(siteMig, g, 0, 11) // migrates to 2
			return th.LoadInt(siteMig, g, 0)
		})
		if v != 11 {
			t.Errorf("call result = %d", v)
		}
		if th.Loc() != 0 {
			t.Errorf("thread at %d after return; want 0", th.Loc())
		}
	})
	s := r.M.Stats.Snapshot()
	if s.Migrations != 1 || s.Returns != 1 {
		t.Fatalf("migrations=%d returns=%d", s.Migrations, s.Returns)
	}
}

func TestReturnInvalidatesOnlyWrittenHomes(t *testing.T) {
	r := newRT(4, coherence.LocalKnowledge)
	r.Run(0, func(th *Thread) {
		a := th.Alloc(1, 8) // will be cached at 0, NOT written by the call
		b := th.Alloc(2, 8) // will be cached at 0 and written remotely
		th.LoadInt(siteCache, a, 0)
		th.LoadInt(siteCache, b, 0)
		CallVoid(th, func() {
			th.MigrateTo(3)
			th.StoreInt(siteCache, b, 0, 9) // writes processor 2's memory
		}) // return stub to 0: invalidate only lines homed on 2
		before := r.M.Stats.Misses
		th.LoadInt(siteCache, a, 0) // must still hit
		if got := r.M.Stats.Misses; got != before {
			t.Errorf("unwritten home was invalidated (misses %d→%d)", before, got)
		}
		if v := th.LoadInt(siteCache, b, 0); v != 9 {
			t.Errorf("read after return = %d; stale line survived", v)
		}
		if r.M.Stats.Misses != before+1 {
			t.Error("written home must be invalidated on return")
		}
	})
}

func TestModeOverrides(t *testing.T) {
	r := New(Config{Procs: 2, Mode: MigrateOnly, HeapBytesPerProc: 1 << 20})
	r.Run(0, func(th *Thread) {
		g := th.Alloc(1, 8)
		th.StoreInt(siteCache, g, 0, 1) // cache site, but mode forces migration
	})
	if r.M.Stats.Migrations != 1 {
		t.Fatal("migrate-only mode must migrate at cache sites")
	}

	r2 := New(Config{Procs: 2, Mode: CacheOnly, HeapBytesPerProc: 1 << 20})
	r2.Run(0, func(th *Thread) {
		g := th.Alloc(1, 8)
		th.StoreInt(siteMig, g, 0, 1)
		if th.Loc() != 0 {
			t.Error("cache-only mode must not migrate")
		}
	})
	if r2.M.Stats.Migrations != 0 {
		t.Fatal("cache-only mode migrated")
	}
}

func TestNoOverheadBaseline(t *testing.T) {
	r := New(Config{Procs: 1, NoOverhead: true, HeapBytesPerProc: 1 << 20})
	mk := r.Run(0, func(th *Thread) {
		g := th.Alloc(0, 8)
		th.StoreInt(siteMig, g, 0, 1)
		th.LoadInt(siteMig, g, 0)
		th.Work(100)
	})
	if mk != 100 {
		t.Fatalf("makespan = %d; only explicit Work should be charged", mk)
	}
}

func TestFutureParallelism(t *testing.T) {
	const procs = 4
	r := newRT(procs, coherence.LocalKnowledge)
	mk := r.Run(0, func(th *Thread) {
		var futs []*Future[int64]
		for p := 0; p < procs; p++ {
			p := p
			futs = append(futs, Spawn(th, func(c *Thread) int64 {
				c.MigrateTo(p)
				c.Work(10000)
				return int64(p)
			}))
		}
		var sum int64
		for _, f := range futs {
			sum += f.Touch(th)
		}
		if sum != 0+1+2+3 {
			t.Errorf("future results sum = %d", sum)
		}
	})
	// Four 10k-cycle bodies on four processors must overlap: makespan
	// well under the 40k of a serial schedule.
	if mk >= 30000 {
		t.Fatalf("makespan = %d; futures did not run in parallel", mk)
	}
	if r.M.Stats.Futures != procs || r.M.Stats.Touches != procs {
		t.Fatal("future/touch counts wrong")
	}
}

func TestFutureNoMigrationIsSerial(t *testing.T) {
	// A future whose body stays home serializes with its parent in
	// virtual time: lazy task creation means no parallelism without a
	// migration.
	r := newRT(2, coherence.LocalKnowledge)
	mk := r.Run(0, func(th *Thread) {
		f := Spawn(th, func(c *Thread) int64 { c.Work(5000); return 1 })
		th.Work(5000)
		f.Touch(th)
	})
	if mk < 10000 {
		t.Fatalf("makespan = %d; same-processor future must serialize", mk)
	}
}

// TestRunWaitsForUntouchedFutures pins Run's contract: it returns only
// after every future body has finished, touched or not, and leaves no
// goroutine behind. The root spawns bodies it never touches — one stays
// home, one migrates, one spawns a migrating grandchild — and returns at
// once.
func TestRunWaitsForUntouchedFutures(t *testing.T) {
	before := runtime.NumGoroutine()
	r := newRT(2, coherence.LocalKnowledge)
	finished := 0
	// The futures land in a slice nobody touches. A kernel run must touch
	// each future exactly once (TestKernelContracts in internal/bench), but
	// the runtime allows an untouched one, and that is this test's subject.
	var untouched []*Future[int]
	spawn := func(th *Thread, body func(c *Thread)) {
		untouched = append(untouched, Spawn(th, func(c *Thread) int {
			body(c)
			finished++
			return 0
		}))
	}
	r.Run(0, func(th *Thread) {
		spawn(th, func(c *Thread) { c.Work(5000) })
		spawn(th, func(c *Thread) {
			c.MigrateTo(1)
			c.Work(5000)
		})
		spawn(th, func(c *Thread) {
			spawn(c, func(g *Thread) {
				g.MigrateTo(1)
				g.Work(9000)
			})
		})
		if finished != 0 {
			t.Errorf("%d bodies finished before the root returned: the test needs them outstanding", finished)
		}
	})
	if finished != len(untouched) || finished != 4 {
		t.Errorf("Run returned with %d of %d future bodies finished", finished, len(untouched))
	}
	if r.M.Stats.Touches != 0 || r.M.Stats.Migrations != 2 {
		t.Errorf("touches = %d, migrations = %d; want 0 and 2",
			r.M.Stats.Touches, r.M.Stats.Migrations)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after Run, %d before it", n, before)
	}
}

// TestDoubleTouchRecharges pins what a second touch of one future does:
// it returns the value again, counts a second touch and charges Cost.Touch
// a second time. Nothing panics here; a kernel run is held to one touch a
// future by its counts (Stats.Touches == Stats.Futures, TestKernelContracts
// in internal/bench), because a second touch inflates the overhead a run
// reports.
func TestDoubleTouchRecharges(t *testing.T) {
	run := func(touches int) (makespan, counted, cost int64) {
		r := newRT(1, coherence.LocalKnowledge)
		makespan = r.Run(0, func(th *Thread) {
			f := Spawn(th, func(*Thread) int64 { return 7 })
			for i := 0; i < touches; i++ {
				if v := f.Touch(th); v != 7 {
					t.Errorf("touch %d of %d = %d, want 7", i+1, touches, v)
				}
			}
		})
		return makespan, r.M.Stats.Touches, r.M.Cost.Touch
	}
	once, n1, cost := run(1)
	twice, n2, _ := run(2)
	if n1 != 1 || n2 != 2 {
		t.Errorf("Stats.Touches = %d and %d; want 1 and 2", n1, n2)
	}
	if cost == 0 || twice != once+cost {
		t.Errorf("makespan %d touched once, %d twice; want a difference of Cost.Touch = %d", once, twice, cost)
	}
}

func TestNilDereferencePanics(t *testing.T) {
	r := newRT(1, coherence.LocalKnowledge)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil dereference")
		}
	}()
	r.Run(0, func(th *Thread) {
		th.LoadInt(siteMig, gaddr.Nil, 0)
	})
}

func TestSiteStats(t *testing.T) {
	r := newRT(2, coherence.LocalKnowledge)
	sm := &Site{Name: "stats.m", Mech: Migrate}
	sc := &Site{Name: "stats.c", Mech: Cache}
	r.Run(0, func(th *Thread) {
		g := th.Alloc(1, 16)
		th.StoreInt(sm, g, 0, 1) // remote write, migrates
		th.MigrateTo(0)
		th.LoadInt(sc, g, 0) // remote cached read
		th.LoadInt(sc, g, 0) // hit, still remote
	})
	m := sm.Stats()
	if m.Writes != 1 || m.Remote != 1 || m.Migrations != 1 {
		t.Fatalf("migrate site stats: %+v", m)
	}
	c := sc.Stats()
	if c.Reads != 2 || c.Remote != 2 || c.Migrations != 0 {
		t.Fatalf("cache site stats: %+v", c)
	}
}
