package machine

import (
	"iter"

	"repro/internal/trace"
)

// LoopScheduler serializes all logical threads of a simulation in
// virtual-time order: at any moment exactly one thread — the runnable
// thread with the smallest virtual clock (ties broken by creation order) —
// executes. This makes the simulation deterministic and causally correct:
// when a thread charges work on a processor, no other live thread has an
// earlier clock, so processor clocks only ever advance in globally
// consistent order.
//
// Protocol (enforced by the runtime layer):
//   - Register a SchedEntry for every thread before it runs, then hand the
//     thread's body to the scheduler with Go (or Main for the root).
//   - Call Sync(e, clock) before every simulation operation; it returns
//     once e is the minimal runnable entry.
//   - Call Park(e) to block on a future; the entry leaves the runnable set.
//   - Call Resume(e, clock) — from the currently running thread — to make
//     a parked entry runnable again at the given clock.
//   - Call Exit(e) when the thread is done.
//
// It is a virtual-time event loop: every logical thread runs as a
// coroutine (iter.Pull) on one goroutine's control flow, the caller of
// Main. Coroutines are asymmetric — a switch goes to a coroutine by next or
// back to whoever called next by yield — but they nest, and the scheduler
// uses that: a thread whose Sync finds a waiter m ordering before it
// resumes m itself instead of yielding to a central loop that would. The
// threads suspended in such a next call form the resume chain
//
//	Main → e₁ → e₂ → … → running
//
// in which every level but the last is a thread inside Sync, marked
// nested. When a next call comes back — the thread above yielded, parked
// or returned — its caller takes the next pick (the pending handoff, or
// else the heap minimum) exactly as Main does: itself, and its Sync
// returns; a thread that is not in the chain, and it resumes that one; or a
// nested thread, which sits below it, and then it leaves the pick in
// handoff and yields to its own resumer, so the chain unwinds one switch a
// level until the picked thread finds itself in handoff. Main is the
// chain's base and the only place the deadlock and nested-Main panics
// live. Which thread runs next is untouched by any of this; only who makes
// the switch is.
//
// A thread whose Sync hands off may publish its next operation (Op). Every
// pick — Sync's and pick's, so Main's and each chain level's — first runs
// in place the operation of each heap root that holds one and orders
// before the caller, sifting the root down at its new clock. That keeps
// the order because a body makes no simulation effect between two Syncs:
// every effect, Call's return stub included, starts with one. The
// invariants:
//
//   - nested is true exactly while an entry is suspended in a next call it
//     made from Sync, and such an entry is on the heap;
//   - only the running thread or Main calls next, and only on an entry that
//     is not nested;
//   - every unwind yield pops a level that exactly one next pushed, so
//     switches ≤ 2 × picks, what a hub dispatcher makes: 1 per handoff for
//     two threads that ping-pong, 2(n−1)/n for a round-robin of n.
//
// The switches are stack switches that never enter the Go runtime
// scheduler, and a panic in a body crosses the chain by itself: each next
// re-raises it in its caller until it leaves Main.
//
// Because Main and every coroutine execute on one strictly serialized
// control flow, the scheduler needs no mutex and no atomics: exactly one
// of {Main, some thread body} runs at any instant, and coroutine switches
// order all accesses. The same holds for everything else a run owns —
// heaps, processor clocks, statistics, caches, directories, futures: plain
// fields, read from outside only after Main has returned.
//
// The running entry is held OFF the heap; at each Sync it continues if
// and only if its (clock, seq) key is strictly less than the heap
// minimum's, and otherwise trades places with that minimum, which runs
// next. The runnable heap is a plain []*SchedEntry ordered by
// (*SchedEntry).less with hole-moving sifts.
//
// The order itself has two references in the tests, neither of which
// shares code with this file: orderModel (sched_model_test.go), a
// linear-scan slice that rides along random programs, and the sixty
// pinned whole-run outcomes of the battery in internal/bench.
type LoopScheduler struct {
	trace *trace.Recorder

	h       []*SchedEntry // runnable entries, a binary min-heap on less
	handoff *SchedEntry   // the entry Sync chose to run next, already off-heap
	seq     uint64
	waiting int  // entries parked off-heap (blocked on futures)
	driving bool // a Main loop is running
	broken  bool // a panic left Main: heap, handoff and nested marks are mid-flight

	// The switch census, over every Main call so far. syncs follows from
	// the order alone; switches is what this implementation paid for the
	// picks (a hub dispatcher pays exactly 2 × picks).
	syncs    int64 // Sync calls
	picks    int64 // times a thread was given control
	ops      int64 // published operations run in place, no thread given control
	switches int64 // next calls plus returns into a next caller, by yield or body end
}

// Census returns the switch census. Read it after Main has returned.
func (s *LoopScheduler) Census() (syncs, picks, switches, ops int64) {
	return s.syncs, s.picks, s.switches, s.ops
}

// NewLoopScheduler returns an empty event-loop scheduler.
func NewLoopScheduler() *LoopScheduler { return &LoopScheduler{} }

// SetTracer attaches a recorder for thread lifecycle events (start and end,
// stamped with the entry's clock). Set it before the first Register; the
// registration sequence is deterministic, so the lifecycle events are part
// of the run's reproducible trace.
func (s *LoopScheduler) SetTracer(tr *trace.Recorder) { s.trace = tr }

// up fills the hole at slot i with e, first moving every ancestor that
// orders after e one level down.
func (s *LoopScheduler) up(i int, e *SchedEntry) {
	h := s.h
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = e
	e.index = int32(i)
}

// down fills the hole at slot i with e, first moving the smaller child up
// for as long as it orders before e.
func (s *LoopScheduler) down(i int, e *SchedEntry) {
	h := s.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(e) {
			break
		}
		h[i] = h[c]
		h[i].index = int32(i)
		i = c
	}
	h[i] = e
	e.index = int32(i)
}

// push enrolls e in the runnable heap.
func (s *LoopScheduler) push(e *SchedEntry) {
	s.h = append(s.h, e)
	s.up(len(s.h)-1, e)
}

// Register creates and enrolls a new entry with the given clock. The entry
// joins the runnable heap immediately; its body starts when it is first
// picked (Go must attach the body before the registering thread next
// yields) and must call Sync before touching simulation state.
func (s *LoopScheduler) Register(clock int64) *SchedEntry {
	if s.broken {
		panic(brokenMsg)
	}
	e := &SchedEntry{clock: clock, seq: s.seq, index: -1}
	s.seq++
	s.push(e)
	if s.trace != nil {
		s.trace.Emit(trace.Event{
			Kind: trace.EvThreadStart, T: clock,
			Tid: int32(e.seq), P: -1, Site: -1, Line: -1,
		})
	}
	return e
}

const brokenMsg = "machine: scheduler reused after a panic in Main"

// Go wraps body in a coroutine bound to e. The coroutine is created but not
// entered: the first pick of e starts the body.
func (s *LoopScheduler) Go(e *SchedEntry, body func()) {
	e.next, e.stop = iter.Pull(func(yield func(struct{}) bool) {
		e.yield = yield
		body()
	})
}

// pick returns the entry that runs next: the one a Sync handed off, or else
// the minimal runnable entry (after a Park, an Exit or a body's return) once
// runOps(e) is done, e the caller (nil for Main); nil when nothing is runnable.
func (s *LoopScheduler) pick(e *SchedEntry) *SchedEntry {
	m := s.handoff
	if m != nil {
		s.handoff = nil
	} else if s.runOps(e); len(s.h) > 0 {
		n := len(s.h) - 1
		m, s.h[0] = s.h[0], s.h[n]
		s.h[n] = nil
		if s.h = s.h[:n]; n > 0 {
			s.down(0, s.h[0])
		}
		m.index = -1
		s.picks++
	}
	return m
}

// runOps runs the heap root's published operation, and sifts the root down
// at its new clock, for as long as it has one and orders before e (nil: any).
func (s *LoopScheduler) runOps(e *SchedEntry) {
	for len(s.h) > 0 {
		m := s.h[0]
		if m.op == nil || e != nil && !m.less(e) {
			return
		}
		m.clock, m.op, m.ran = m.op.RunOp(), nil, true
		s.ops++
		s.down(0, m)
	}
}

// resume switches to m's coroutine and returns when control comes back:
// m, or the last thread resumed in turn from m's Sync, yielded or returned.
func (s *LoopScheduler) resume(m *SchedEntry) {
	if m.next == nil {
		panic("machine: entry scheduled before Go attached its thread body")
	}
	s.switches++
	m.next()
	s.switches++
}

// Main runs body as e's thread and is the base of the resume chain: pick,
// resume, repeat. It returns only when every registered thread has exited.
// Nothing runnable with parked entries remaining means every thread is
// blocked on a future that can never complete — a deadlock in the simulated
// program. A panic that leaves Main — that one, or one out of a body —
// marks the scheduler broken.
func (s *LoopScheduler) Main(e *SchedEntry, body func()) {
	if s.driving {
		panic("machine: nested Main on one scheduler")
	}
	if s.broken {
		panic(brokenMsg)
	}
	s.Go(e, body)
	s.driving = true
	done := false
	defer func() { s.driving, s.broken = false, !done }()
	for {
		m := s.pick(nil)
		if m == nil {
			if s.waiting > 0 {
				panic("machine: simulation deadlock — every thread is blocked on a touch")
			}
			done = true
			return
		}
		s.resume(m)
	}
}

// Sync is SyncOp with no operation to publish.
func (s *LoopScheduler) Sync(e *SchedEntry, clock int64) { s.SyncOp(e, clock, nil) }

// SyncOp updates e's clock and hands the virtual processor on unless e is
// still the minimal runnable entry; while e waits, op (nil: none) is its
// published next operation. It reports whether somebody ran op, e's clock
// then being the one op returned. The fast path — the
// running thread advances but stays ahead of every waiter — is three
// comparisons with no heap traffic and no switch. Otherwise, once the roots
// ordering before e have had their operations run (runOps), the heap
// minimum m runs next and e takes its place in the heap: e is written over
// the root and sifted down once. That is the order a push of e followed by a pop would
// give — m was the strict minimum and m < e, so m is still the minimum
// after e joins, and the heap holds the same set either way — for one
// sift instead of a sift-up and a sift-down.
//
// Then e makes the switch itself (the resume chain, above): it resumes
// each pick that is not nested and picks again when that comes back, until
// the pick is e; a nested pick goes into handoff for the levels below.
//
// e must be the running thread's entry, the one entry whose index is −1.
// A body that syncs another thread's entry — a Spawn body using the parent
// it closed over, runnable on the heap or parked on a touch — panics here,
// at the first such Sync, before the heap is touched.
func (s *LoopScheduler) SyncOp(e *SchedEntry, clock int64, op Op) bool {
	if e.index != -1 {
		panic("machine: Sync of a runnable, parked or exited entry: a thread body is using another thread's handle")
	}
	s.syncs++
	e.clock = clock
	if len(s.h) == 0 || e.less(s.h[0]) {
		return false
	}
	if s.runOps(e); e.less(s.h[0]) {
		return false
	}
	m := s.h[0]
	m.index = -1
	e.op = op
	s.down(0, e)
	s.picks++
	for !m.nested {
		e.nested = true
		s.resume(m)
		e.nested = false
		// e is on the heap or in handoff, so there is a pick.
		if m = s.pick(e); m == e {
			break
		}
	}
	if m != e {
		s.handoff = m
		e.yield(struct{}{})
	}
	ran := e.ran
	e.op, e.ran = nil, false
	return ran
}

// Park takes e out of the runnable set (the thread is about to block on a
// future) and yields to its resumer, Main or a thread in Sync, which picks
// the next thread; the coroutine resumes after a Resume re-enrolls the
// entry and somebody picks it again. The caller is the running thread,
// whose entry is already off the heap.
func (s *LoopScheduler) Park(e *SchedEntry) {
	s.waiting++
	e.index = offRun
	e.yield(struct{}{})
}

// Resume re-enrolls a parked entry at the given clock. It must be called by
// the currently running thread, which keeps running until its own next
// Sync, so wake-ups happen at deterministic protocol points.
func (s *LoopScheduler) Resume(e *SchedEntry, clock int64) {
	e.clock = clock
	s.waiting--
	s.push(e)
}

// Exit ends e's thread. The caller is the running thread, whose entry is
// already off the heap; its body returns right after, which ends its
// coroutine and hands control back to its resumer.
func (s *LoopScheduler) Exit(e *SchedEntry) {
	e.index = offRun
	if s.trace != nil {
		s.trace.Emit(trace.Event{
			Kind: trace.EvThreadEnd, T: e.clock,
			Tid: int32(e.seq), P: -1, Site: -1, Line: -1,
		})
	}
}
