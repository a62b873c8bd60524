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
// coroutine (iter.Pull) under one dispatcher goroutine, the caller of
// Main. A handoff — the running thread's Sync finds a waiter that orders
// before it — costs one sift-down and two coroswitches (see Sync), stack
// switches that never enter the Go runtime scheduler.
//
// Because the dispatcher and every coroutine execute on one strictly
// serialized control flow, the scheduler needs no mutex and no atomics:
// exactly one of {dispatcher, some thread body} runs at any instant, and
// coroutine switches order all accesses. The same holds for everything
// else a run owns — heaps, processor clocks, statistics, caches,
// directories, futures: plain fields, read from outside only after Main
// has returned. The one thing a second goroutine reads mid-run is the
// trace recorder, which therefore keeps its lock.
//
// The running entry is held OFF the heap; at each Sync it continues if
// and only if its (clock, seq) key is strictly less than the heap
// minimum's, and otherwise trades places with that minimum and yields to
// the dispatcher, which resumes it. The runnable heap is a plain
// []*SchedEntry ordered by (*SchedEntry).less with hole-moving sifts.
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
	driving bool // a Main dispatcher loop is running
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
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
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
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
}

// push enrolls e in the runnable heap.
func (s *LoopScheduler) push(e *SchedEntry) {
	s.h = append(s.h, e)
	s.up(len(s.h)-1, e)
}

// pop removes and returns the minimal runnable entry, or nil when the heap
// is empty.
func (s *LoopScheduler) pop() *SchedEntry {
	n := len(s.h) - 1
	if n < 0 {
		return nil
	}
	m, last := s.h[0], s.h[n]
	s.h[n] = nil
	s.h = s.h[:n]
	if n > 0 {
		s.down(0, last)
	}
	m.index = -1
	return m
}

// Register creates and enrolls a new entry with the given clock. The entry
// joins the runnable heap immediately; its body starts when a dispatcher
// first picks it (Go must attach the body before the registering thread
// next yields) and must call Sync before touching simulation state.
func (s *LoopScheduler) Register(clock int64) *SchedEntry {
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

// Go wraps body in a coroutine bound to e. The coroutine is created but not
// entered: the dispatcher's first pick of e starts the body.
func (s *LoopScheduler) Go(e *SchedEntry, body func()) {
	e.next, e.stop = iter.Pull(func(yield func(struct{}) bool) {
		e.yield = yield
		body()
	})
}

// Main runs body as e's thread and drives the dispatcher loop: take the
// entry Sync handed off, or else pop the minimal runnable entry (after a
// Park, an Exit or a body's return); resume its coroutine until it yields
// (in Sync or Park) or its body returns; repeat. It returns only when every
// registered thread has exited. An empty heap with parked entries remaining
// means every thread is blocked on a future that can never complete — a
// deadlock in the simulated program.
func (s *LoopScheduler) Main(e *SchedEntry, body func()) {
	if s.driving {
		panic("machine: nested Main on one scheduler")
	}
	s.Go(e, body)
	s.driving = true
	defer func() { s.driving = false }()
	for {
		m := s.handoff
		if m != nil {
			s.handoff = nil
		} else if m = s.pop(); m == nil {
			if s.waiting > 0 {
				panic("machine: simulation deadlock — every thread is blocked on a touch")
			}
			return
		}
		if m.next == nil {
			panic("machine: entry scheduled before Go attached its thread body")
		}
		m.next()
	}
}

// Sync updates e's clock and yields unless e is still the minimal runnable
// entry. The fast path — the running thread advances but stays ahead of
// every waiter — is three comparisons with no heap traffic and no switch.
// Otherwise the heap minimum m runs next and e takes its place in the heap:
// e is written over the root and sifted down once, and m is left in handoff
// for the dispatcher. That is the order a push of e followed by a pop would
// give — m was the strict minimum and m < e, so m is still the minimum after
// e joins, and the heap holds the same set either way — for one sift instead
// of a sift-up and a sift-down.
func (s *LoopScheduler) Sync(e *SchedEntry, clock int64) {
	e.clock = clock
	if len(s.h) == 0 {
		return
	}
	m := s.h[0]
	if e.less(m) {
		return
	}
	m.index = -1
	s.down(0, e)
	s.handoff = m
	e.yield(struct{}{})
}

// Park takes e out of the runnable set (the thread is about to block on a
// future) and yields; the coroutine resumes after a Resume re-enrolls the
// entry and the dispatcher picks it again. The caller is the running
// thread, whose entry is already off the heap.
func (s *LoopScheduler) Park(e *SchedEntry) {
	s.waiting++
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
// coroutine and hands control back to the dispatcher.
func (s *LoopScheduler) Exit(e *SchedEntry) {
	if s.trace != nil {
		s.trace.Emit(trace.Event{
			Kind: trace.EvThreadEnd, T: e.clock,
			Tid: int32(e.seq), P: -1, Site: -1, Line: -1,
		})
	}
}
