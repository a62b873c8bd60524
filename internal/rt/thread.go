package rt

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/gaddr"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Thread is one logical Olden thread. It carries its own virtual clock and
// its current processor; work, message latencies and coherence events move
// the clock forward, and charging work on a processor serializes against
// every other thread on that processor in virtual time.
//
// A Thread belongs to the one body that runs as it — the root function or
// a Spawn closure, each a coroutine of the scheduler's dispatcher — and
// only that body may call its methods; Spawn creates new threads for
// parallel work.
type Thread struct {
	rt  *Runtime
	se  *machine.SchedEntry
	loc int   // current processor
	now int64 // virtual clock

	// arrived is the clock at which the thread arrived at loc (spawn
	// time, or completion of its last migration); the trace layer emits
	// the [arrived, departure) span as a residency event.
	arrived int64

	// frames holds, per active rt.Call (frames[0]: the body), its processor
	// and the processors whose memories it wrote, the homes the refined
	// local-knowledge rule invalidates on return.
	frames []frame

	// The current operation (RunOp); opVal holds a store's value or a Work
	// chunk's cycles (opSite workSite), and a load's result.
	opSite  *Site
	opAddr  gaddr.GP
	opVal   uint64
	opStore bool
}

type frame struct {
	home  int
	wrote uint64
}

// tid is the thread's logical id in traces: its scheduler sequence number.
func (t *Thread) tid() int32 { return int32(t.se.Seq()) }

// Loc returns the processor the thread currently occupies.
func (t *Thread) Loc() int { return t.loc }

// Now returns the thread's virtual clock.
func (t *Thread) Now() int64 { return t.now }

// Runtime returns the runtime the thread executes on.
func (t *Thread) Runtime() *Runtime { return t.rt }

// workChunk bounds a single virtual-time occupation. Charging work in
// chunks lets concurrently-arriving threads interleave on a processor the
// way a real serial processor with preemption points would: each chunk
// starts with a sync, so a thread with an earlier clock gets the processor
// between chunks instead of waiting out one huge charge.
const workChunk = 256

var workSite = new(Site) // the opSite of a Work chunk

// Work charges cycles of local computation at the current processor.
func (t *Thread) Work(cycles int64) {
	for cycles > 0 {
		c := min(cycles, workChunk)
		t.opSite, t.opVal = workSite, uint64(c)
		if !t.rt.Sched.SyncOp(t.se, t.now, t) {
			t.work(c)
		}
		cycles -= c
	}
}

// RunOp runs the recorded operation at the thread's clock, as the thread
// itself does when its Sync returns with nobody having run it.
func (t *Thread) RunOp() int64 {
	if t.opSite == workSite {
		t.work(int64(t.opVal))
	} else {
		t.opVal = t.access(t.opSite, t.opAddr, t.opStore, t.opVal)
	}
	return t.now
}

func (t *Thread) work(c int64) { t.now = t.rt.M.Procs[t.loc].Occupy(t.now, c) }

// sync blocks until this thread is the globally minimal-clock runnable
// thread; every simulation operation starts with a sync, which is what
// makes runs deterministic and virtual time causally consistent.
func (t *Thread) sync() { t.rt.Sched.Sync(t.se, t.now) }

// chargeHere charges overhead cycles locally if overhead accounting is on.
func (t *Thread) chargeHere(cycles int64) {
	if t.rt.Overhead && cycles > 0 {
		t.now = t.rt.M.Procs[t.loc].Occupy(t.now, cycles)
	}
}

// Alloc allocates nbytes on the named processor and returns its global
// pointer — the paper's ALLOC library routine. Allocation itself costs a
// few cycles of local work.
func (t *Thread) Alloc(proc int, nbytes uint32) gaddr.GP {
	if proc < 0 || proc >= t.rt.P() {
		panic(fmt.Sprintf("rt: Alloc on processor %d of %d", proc, t.rt.P()))
	}
	t.sync()
	t.chargeHere(4)
	return t.rt.M.Procs[proc].Heap.Alloc(nbytes)
}

// AllocAtHome allocates nbytes on the processor that owns g — the common
// "place the new object with its neighbour" pattern (e.g. splitting a
// Barnes-Hut cell on the displaced body's processor). Programs use this
// instead of unpacking the processor name out of a global pointer
// themselves: address encodings are the runtime's business.
func (t *Thread) AllocAtHome(g gaddr.GP, nbytes uint32) gaddr.GP {
	if g.IsNil() {
		panic("rt: AllocAtHome of nil pointer")
	}
	return t.Alloc(g.Proc(), nbytes)
}

// mech resolves the effective mechanism of a site under the runtime mode.
func (t *Thread) mech(s *Site) Mechanism {
	switch t.rt.Mode {
	case MigrateOnly:
		return Migrate
	case CacheOnly:
		return Cache
	default:
		return s.Mech
	}
}

// noteWrite records that the thread wrote processor q's memory: into every
// open call frame (return invalidation) and into the dirty set via the
// caller (write tracking).
func (t *Thread) noteWrite(q int) {
	for i := range t.frames {
		t.frames[i].wrote |= 1 << uint(q)
	}
}

// migrate moves the thread to processor dst: release at the source, network
// latency, receive + acquire at the destination. site is the interned
// trace id of the dereference site that triggered the move (-1 for
// explicit moves and return stubs).
func (t *Thread) migrate(dst int, isReturn bool, writtenProcs uint64, site int32) {
	c := t.rt.M.Cost
	src := t.loc
	var send, net, recv int64
	if isReturn {
		send, net, recv = c.ReturnSend, c.ReturnNet, c.ReturnRecv
		t.rt.M.Stats.Returns++
	} else {
		send, net, recv = c.MigrateSend, c.MigrateNet, c.MigrateRecv
		t.rt.M.Stats.Migrations++
	}
	t.now = t.rt.M.Procs[src].Occupy(t.now, send)
	// A migration leaving a processor releases that processor's
	// accumulated write-tracking state (Appendix A).
	t.now = t.rt.Coh.OnRelease(src, t.now, t.rt.dirty[src])
	t.rt.dirty[src] = coherence.DirtySet{}
	depart := t.now
	t.now += net
	t.now = t.rt.M.Procs[dst].Occupy(t.now, recv)
	t.now = t.rt.Coh.OnAcquire(dst, t.now, isReturn, writtenProcs)
	if isReturn {
		t.rt.mReturnLat.Observe(t.now - depart)
	} else {
		t.rt.mMigLat.Observe(t.now - depart)
	}
	if tr := t.rt.M.Tracer; tr != nil {
		kind := trace.EvMigrate
		if isReturn {
			kind = trace.EvReturn
		}
		tr.Emit(trace.Event{
			Kind: trace.EvResidency, T: t.arrived, Dur: depart - t.arrived,
			P: int16(src), Tid: t.tid(), Site: -1, Line: -1,
		})
		tr.Emit(trace.Event{
			Kind: kind, T: depart, Dur: t.now - depart,
			P: int16(src), Tid: t.tid(), Site: site, Line: -1,
			Arg: int64(dst),
		})
	}
	t.loc = dst
	t.arrived = t.now
}

// MigrateTo explicitly moves the thread (used by programs that pin work to
// a data owner, e.g. to model `ALLOC`-then-build loops).
func (t *Thread) MigrateTo(dst int) {
	if dst == t.loc {
		return
	}
	t.sync()
	t.migrate(dst, false, 0, -1)
}

// Finish releases the thread's outstanding writes and folds its clock into
// its final processor, so Makespan covers it. Run and Spawn call it
// automatically.
func (t *Thread) Finish() {
	t.sync()
	t.now = t.rt.Coh.OnRelease(t.loc, t.now, t.rt.dirty[t.loc])
	t.rt.dirty[t.loc] = coherence.DirtySet{}
	t.now = t.rt.M.Procs[t.loc].Occupy(t.now, 0)
	if tr := t.rt.M.Tracer; tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvResidency, T: t.arrived, Dur: t.now - t.arrived,
			P: int16(t.loc), Tid: t.tid(), Site: -1, Line: -1,
		})
	}
}

// Call executes f as an Olden procedure call: if the body migrated away,
// the return stub migrates the thread back to the caller's processor
// (registers + return address only — no stack frame), and the refined
// local-knowledge rule invalidates exactly the homes the body wrote.
func Call[T any](t *Thread, f func() T) T {
	n := t.enter()
	v := f()
	t.leave(n)
	return v
}

// CallVoid is Call for procedures without results. It does not wrap f:
// the wrapper closure was a measurable allocation on the migrate hot path
// (every remote dereference under migrate-only runs inside one of these).
func CallVoid(t *Thread, f func()) {
	n := t.enter()
	f()
	t.leave(n)
}

// enter opens a frame at the thread's processor and returns its index.
func (t *Thread) enter() int {
	t.frames = append(t.frames, frame{home: t.loc})
	return len(t.frames) - 1
}

// leave closes frame n, the innermost (noteWrite gave its writes to the
// outer ones too); the return stub takes the thread home if the body moved
// it. The stub is out of line so that leave inlines into every Call.
func (t *Thread) leave(n int) {
	if t.frames[n].home != t.loc {
		t.returnStub(n)
	}
	t.frames = t.frames[:n]
}

// returnStub migrates the thread back to frame n's processor. Like every
// simulation effect it starts with a sync, so it runs at the thread's turn.
func (t *Thread) returnStub(n int) {
	f := t.frames[n]
	t.sync()
	t.migrate(f.home, true, f.wrote, -1)
}

// cacheRef is a resolved cached access: the entry plus the page offset.
type cacheRef struct {
	e       *cache.Entry
	pageOff uint32
}

// LoadWord reads the 8-byte word at byte offset off from the object g,
// using the site's mechanism for remote references.
func (t *Thread) LoadWord(s *Site, g gaddr.GP, off uint32) uint64 {
	a := g.Add(off)
	t.opSite, t.opAddr, t.opStore = s, a, false
	if t.rt.Sched.SyncOp(t.se, t.now, t) {
		return t.opVal
	}
	return t.access(s, a, false, 0)
}

// StoreWord writes the word at byte offset off of object g. Cached remote
// writes are write-through; every heap write is tracked for coherence.
func (t *Thread) StoreWord(s *Site, g gaddr.GP, off uint32, v uint64) {
	a := g.Add(off)
	t.opSite, t.opAddr, t.opVal, t.opStore = s, a, v, true
	if !t.rt.Sched.SyncOp(t.se, t.now, t) {
		t.access(s, a, true, v)
	}
}

// access is a load or store operation past its sync: the locality test,
// the site's mechanism for a remote reference — after a migration the
// reference is local — and then the read, which it returns, or the write.
// The cacheRef travels by value: it must not escape to the heap on the
// per-access path.
func (t *Thread) access(s *Site, a gaddr.GP, store bool, v uint64) uint64 {
	if a.IsNil() {
		panic(fmt.Sprintf("rt: nil pointer dereference at site %q", s.Name))
	}
	if s.reg != t.rt {
		s.reg = t.rt
		t.rt.registerSite(s)
		if tr := t.rt.M.Tracer; tr != nil {
			s.traceID = tr.SiteID(s.Name)
		} else {
			s.traceID = -1
		}
	}
	t.chargeHere(t.rt.M.Cost.PtrTest)
	st := &t.rt.M.Stats
	st.PtrTests++
	uses, cacheable, remote := &s.reads, &st.CacheableReads, &st.RemoteReads
	if store {
		uses, cacheable, remote = &s.writes, &st.CacheableWrites, &st.RemoteWrites
	}
	*uses++
	m := t.mech(s)
	if m == Cache {
		*cacheable++
	}
	var ref cacheRef
	direct := a.Proc() == t.loc
	if !direct {
		s.remote++
		if direct = m == Migrate; direct {
			s.migrations++
			t.migrate(a.Proc(), false, 0, s.traceID)
		} else {
			*remote++
			ref = t.cacheAccess(s, a)
		}
	}
	home := t.rt.M.Procs[a.Proc()]
	switch {
	case !store && direct:
		return home.Heap.LoadWord(a.Off())
	case !store:
		return t.rt.Caches[t.loc].ReadWord(ref.e, ref.pageOff)
	case direct:
		home.Heap.StoreWord(a.Off(), v)
	default:
		// Update the local copy and write through to the home. The
		// thread does not wait for the write-through to complete
		// (write-buffer semantics), but the home is occupied by it.
		t.rt.Caches[t.loc].WriteWord(ref.e, ref.pageOff, v)
		t.chargeHere(t.rt.M.Cost.WriteThrough)
		home.Occupy(t.now, t.rt.M.Cost.WriteService)
		home.Heap.StoreWord(a.Off(), v)
	}
	if track := t.rt.Coh.WriteTrackCost(a); track > 0 {
		t.now = t.rt.M.Procs[t.loc].Occupy(t.now, track)
	}
	t.rt.dirty[t.loc].Add(a)
	t.noteWrite(a.Proc())
	return v
}

// Typed accessors. Heap words hold either a packed global pointer (low 32
// bits), a signed 64-bit integer, or a float64's bits.

// LoadPtr reads a global pointer field.
func (t *Thread) LoadPtr(s *Site, g gaddr.GP, off uint32) gaddr.GP {
	return gaddr.GP(t.LoadWord(s, g, off))
}

// StorePtr writes a global pointer field.
func (t *Thread) StorePtr(s *Site, g gaddr.GP, off uint32, v gaddr.GP) {
	t.StoreWord(s, g, off, uint64(v))
}

// LoadInt reads a signed integer field.
func (t *Thread) LoadInt(s *Site, g gaddr.GP, off uint32) int64 {
	return int64(t.LoadWord(s, g, off))
}

// StoreInt writes a signed integer field.
func (t *Thread) StoreInt(s *Site, g gaddr.GP, off uint32, v int64) {
	t.StoreWord(s, g, off, uint64(v))
}

// LoadFloat reads a float64 field.
func (t *Thread) LoadFloat(s *Site, g gaddr.GP, off uint32) float64 {
	return math.Float64frombits(t.LoadWord(s, g, off))
}

// StoreFloat writes a float64 field.
func (t *Thread) StoreFloat(s *Site, g gaddr.GP, off uint32, v float64) {
	t.StoreWord(s, g, off, math.Float64bits(v))
}
