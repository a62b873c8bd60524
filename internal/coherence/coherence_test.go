package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/gaddr"
	"repro/internal/machine"
)

func setup(t *testing.T, kind Kind, procs int) (*Engine, *machine.Machine, []*cache.Cache) {
	t.Helper()
	m := machine.New(machine.Config{Procs: procs, HeapBytesPerProc: 1 << 20})
	caches := make([]*cache.Cache, procs)
	for i := range caches {
		caches[i] = cache.New()
	}
	return New(kind, m, caches), m, caches
}

func install(c *cache.Cache, g gaddr.GP) *cache.Entry {
	e, _, _ := c.Probe(g)
	c.InstallLine(e, gaddr.LineOf(g), make([]uint64, gaddr.WordsPerLine))
	return e
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{LocalKnowledge: "local", GlobalKnowledge: "global", Bilateral: "bilateral"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if LocalKnowledge.TracksWrites() || !GlobalKnowledge.TracksWrites() || !Bilateral.TracksWrites() {
		t.Fatal("write tracking flags wrong")
	}
}

func TestLocalAcquireFlushesAll(t *testing.T) {
	e, _, caches := setup(t, LocalKnowledge, 2)
	g := gaddr.Pack(0, gaddr.PageBytes)
	ent := install(caches[1], g)
	e.OnAcquire(1, 0, false, 0)
	if ent.Valid != 0 {
		t.Fatal("migration receive must invalidate the whole cache")
	}
}

func TestLocalReturnInvalidatesOnlyWrittenHomes(t *testing.T) {
	e, _, caches := setup(t, LocalKnowledge, 4)
	g0 := gaddr.Pack(0, gaddr.PageBytes)
	g2 := gaddr.Pack(2, gaddr.PageBytes)
	e0 := install(caches[1], g0)
	e2 := install(caches[1], g2)
	e.OnAcquire(1, 0, true, 1<<2) // thread returning to 1 wrote processor 2's memory
	if e0.Valid == 0 {
		t.Fatal("lines homed on unwritten processors must survive a return")
	}
	if e2.Valid != 0 {
		t.Fatal("lines homed on written processors must be invalidated")
	}
}

func TestLocalReturnNoWritesIsFree(t *testing.T) {
	e, m, caches := setup(t, LocalKnowledge, 2)
	install(caches[1], gaddr.Pack(0, gaddr.PageBytes))
	now := e.OnAcquire(1, 123, true, 0)
	if now != 123 {
		t.Fatalf("return with empty write set should cost nothing, now=%d", now)
	}
	if m.Procs[1].Busy() != 0 {
		t.Fatal("no work should be charged")
	}
}

func TestGlobalReleaseInvalidatesSharers(t *testing.T) {
	e, m, caches := setup(t, GlobalKnowledge, 4)
	g := gaddr.Pack(0, gaddr.PageBytes)
	p := gaddr.PageOf(g)
	// Processors 1 and 3 cache the page.
	e1 := install(caches[1], g)
	e3 := install(caches[3], g)
	e.RegisterSharer(p, 1)
	e.RegisterSharer(p, 3)
	if e.Sharers(p) != 1<<1|1<<3 {
		t.Fatalf("sharers = %#x", e.Sharers(p))
	}
	// A thread on processor 1 wrote line 0 and releases.
	dirty := DirtySet{}
	dirty.Add(g)
	now := e.OnRelease(1, 0, dirty)
	if now < m.Cost.InvalidateAck {
		t.Fatalf("release must wait for acks, now=%d", now)
	}
	if e1.Valid == 0 {
		t.Fatal("the writer keeps its own (current) copy")
	}
	if e3.Valid != 0 {
		t.Fatal("other sharers must lose the dirty line")
	}
	if m.Stats.Invalidations != 1 {
		t.Fatalf("invalidations = %d", m.Stats.Invalidations)
	}
	if e.Sharers(p)&(1<<3) == 0 {
		t.Fatal("sharers stay registered: they may hold other valid lines of the page")
	}
	// Acquire at the destination is free under global knowledge.
	if got := e.OnAcquire(2, 50, false, 0); got != 50 {
		t.Fatalf("global acquire must be free, got %d", got)
	}
}

func TestGlobalSpuriousLineInvalidation(t *testing.T) {
	// Sharing is tracked per page, so a sharer caching only line 5 still
	// receives an invalidation for line 0 (it is simply ineffective) —
	// the paper's "spurious invalidation messages".
	e, m, caches := setup(t, GlobalKnowledge, 2)
	base := gaddr.Pack(0, gaddr.PageBytes)
	other := base.Add(5 * gaddr.LineBytes)
	ent := install(caches[1], other)
	e.RegisterSharer(gaddr.PageOf(base), 1)
	dirty := DirtySet{}
	dirty.Add(base) // line 0 dirty
	e.OnRelease(0, 0, dirty)
	if m.Stats.Invalidations != 1 {
		t.Fatal("a spurious invalidation message must still be sent")
	}
	if ent.Valid != 1<<5 {
		t.Fatalf("line 5 must survive, valid=%#x", ent.Valid)
	}
}

func TestBilateralStampsAndStaleCheck(t *testing.T) {
	e, m, caches := setup(t, Bilateral, 2)
	g := gaddr.Pack(0, gaddr.PageBytes)
	p := gaddr.PageOf(g)
	ent := install(caches[1], g)
	install(caches[1], g.Add(3*gaddr.LineBytes))
	e.RegisterSharer(p, 1)

	// Writer on processor 1 dirties line 0, releases: stamp bumps.
	dirty := DirtySet{}
	dirty.Add(g)
	e.OnRelease(1, 0, dirty)
	if e.Stamp(p) != 1 {
		t.Fatalf("stamp = %d", e.Stamp(p))
	}
	// Receive at processor 1: everything goes stale.
	e.OnAcquire(1, 0, false, 0)
	if !ent.Stale {
		t.Fatal("entry must be stale after acquire")
	}
	// Stale check: line 0 changed since stamp 0, line 3 did not.
	now := e.StaleCheck(ent, 1, 0)
	if now < m.Cost.StampRequest+m.Cost.StampService+m.Cost.StampReply {
		t.Fatalf("stale check underpriced: %d", now)
	}
	if ent.Stale {
		t.Fatal("stale mark must clear")
	}
	if ent.Valid&1 != 0 {
		t.Fatal("changed line must be invalidated")
	}
	if ent.Valid&(1<<3) == 0 {
		t.Fatal("unchanged line must stay valid")
	}
	if ent.Stamp != 1 {
		t.Fatalf("entry stamp = %d", ent.Stamp)
	}
	if m.Stats.StampChecks != 1 {
		t.Fatal("stamp check not counted")
	}
	// A second stale check after an idle release sees nothing new.
	e.OnRelease(1, 0, DirtySet{})
	e.OnAcquire(1, 0, false, 0)
	e.StaleCheck(ent, 1, 0)
	if ent.Valid&(1<<3) == 0 {
		t.Fatal("unchanged lines must survive repeated checks")
	}
}

func TestWriteTrackCost(t *testing.T) {
	g := gaddr.Pack(0, gaddr.PageBytes)
	for _, kind := range []Kind{GlobalKnowledge, Bilateral} {
		e, m, _ := setup(t, kind, 2)
		if got := e.WriteTrackCost(g); got != m.Cost.WriteTrackNonShared {
			t.Fatalf("%v: non-shared cost = %d", kind, got)
		}
		e.RegisterSharer(gaddr.PageOf(g), 1)
		if got := e.WriteTrackCost(g); got != m.Cost.WriteTrackShared {
			t.Fatalf("%v: shared cost = %d", kind, got)
		}
	}
	e, _, _ := setup(t, LocalKnowledge, 2)
	if e.WriteTrackCost(g) != 0 {
		t.Fatal("local knowledge does not track writes")
	}
}

func TestStaleCheckPanicsOutsideBilateral(t *testing.T) {
	e, _, caches := setup(t, LocalKnowledge, 1)
	ent := install(caches[0], gaddr.Pack(0, gaddr.PageBytes))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.StaleCheck(ent, 0, 0)
}
