package machine

import (
	"container/heap"
	"sync"

	"repro/internal/trace"
)

// A Scheduler serializes all logical threads of a simulation in virtual-time
// order: at any moment exactly one thread — the runnable thread with the
// smallest virtual clock (ties broken by creation order) — executes. This
// makes the simulation deterministic and causally correct: when a thread
// charges work on a processor, no other live thread has an earlier clock,
// so processor clocks only ever advance in globally consistent order.
//
// Protocol (enforced by the runtime layer):
//   - Register a SchedEntry for every thread before it runs, then hand the
//     thread's body to the scheduler with Go (or Main for the root).
//   - Call Sync(e, clock) before every simulation operation; it blocks
//     until e is the minimal runnable entry.
//   - Call Park(e) to block on a future; the entry leaves the runnable set.
//   - Call Resume(e, clock) — from the currently running thread — to make
//     a parked entry runnable again at the given clock.
//   - Call Exit(e) when the thread is done.
//
// Two implementations satisfy the interface: the virtual-time event loop
// (LoopScheduler, the default — see sched_loop.go), which runs every thread
// as a coroutine under one dispatcher goroutine, and the original
// channel-handoff scheduler (ChanScheduler, kept behind a flag for
// differential testing), which runs each thread on its own goroutine. Both
// replay the identical decision procedure, so they produce byte-identical
// event orders; the digest-equivalence battery in internal/bench pins that.
type Scheduler interface {
	// Register creates and enrolls a new entry with the given clock. The
	// new thread must call Sync before touching simulation state.
	Register(clock int64) *SchedEntry
	// Go binds body to an already-registered entry and runs it as that
	// entry's logical thread. The body must follow the protocol: Sync
	// before touching simulation state, Exit when done.
	Go(e *SchedEntry, body func())
	// Main binds body to an already-registered entry and runs it as the
	// root logical thread on the calling goroutine's behalf. Under the
	// event loop the caller becomes the dispatcher: Main returns only
	// when every registered thread has exited. Under the channel
	// scheduler Main returns when body does; threads spawned with Go may
	// still be running and the caller must wait for them itself.
	Main(e *SchedEntry, body func())
	// Sync updates e's clock and blocks until e is the minimal runnable
	// entry. The calling goroutine may then execute simulation operations
	// until its next Sync.
	Sync(e *SchedEntry, clock int64)
	// Park removes e from the runnable set (the thread is about to block
	// on a future) and blocks until a Resume makes it runnable and it
	// becomes minimal.
	Park(e *SchedEntry)
	// Resume re-enrolls a parked entry at the given clock. It must be
	// called by the currently running thread (so wake-ups happen at
	// deterministic points). The resumed thread proceeds once it becomes
	// minimal.
	Resume(e *SchedEntry, clock int64)
	// Exit removes e permanently and hands control to the next minimal
	// entry.
	Exit(e *SchedEntry)
	// SetTracer attaches a recorder for thread lifecycle events (start
	// and end, stamped with the entry's clock). Set it before the first
	// Register; the registration sequence is deterministic, so the
	// lifecycle events are part of the run's reproducible trace.
	SetTracer(tr *trace.Recorder)
}

// SchedKind selects a scheduler implementation.
type SchedKind int

const (
	// SchedDefault is the event loop.
	SchedDefault SchedKind = iota
	// SchedEventLoop is the virtual-time event loop (sched_loop.go).
	SchedEventLoop
	// SchedChannel is the original per-yield channel-handoff scheduler,
	// kept as the reference the differential tests compare against.
	SchedChannel
)

// String names the kind as the differential tests spell it.
func (k SchedKind) String() string {
	switch k {
	case SchedEventLoop:
		return "eventloop"
	case SchedChannel:
		return "channel"
	}
	return "default"
}

// NewScheduler returns an empty scheduler of the default kind.
func NewScheduler() Scheduler { return NewSchedulerOf(SchedDefault) }

// NewSchedulerOf returns an empty scheduler of the named kind.
func NewSchedulerOf(kind SchedKind) Scheduler {
	if kind == SchedChannel {
		return NewChanScheduler()
	}
	return NewLoopScheduler()
}

// SchedEntry is one thread's handle in the scheduler. Under the channel
// scheduler the clock, heap index and parked flag are guarded by the
// scheduler's mutex and wake is the handoff signal; under the event loop
// there is no concurrency at all — every access happens on the single
// dispatcher goroutine's control flow, with next/yield the coroutine
// switch points (see sched_loop.go).
type SchedEntry struct {
	clock  int64
	seq    uint64
	index  int // heap index; -1 when off-heap
	parked bool
	wake   chan struct{} // channel scheduler: handoff signal

	// Event-loop coroutine handles: next resumes the thread's coroutine
	// until its next yield (false when the body has returned), yield
	// returns control to the dispatcher, stop releases the coroutine.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Seq returns the entry's creation sequence number, which the runtime and
// trace layers use as the logical thread id.
func (e *SchedEntry) Seq() uint64 { return e.seq }

// less is the virtual-time execution order: by clock, ties by creation
// sequence. It is a strict total order — no two entries compare equal.
func (e *SchedEntry) less(o *SchedEntry) bool {
	if e.clock != o.clock {
		return e.clock < o.clock
	}
	return e.seq < o.seq
}

// ChanScheduler is the original scheduler: every thread is a goroutine, and
// every yield point takes the scheduler mutex, re-heaps the entry, and —
// when activeness transfers — hands off through the winner's wake channel.
// It is kept as the differential-testing fallback for the event loop
// (SchedChannel).
type ChanScheduler struct {
	trace *trace.Recorder

	mu      sync.Mutex
	h       entryHeap
	active  *SchedEntry
	seq     uint64
	waiting int // entries parked off-heap (blocked on futures)
}

// NewChanScheduler returns an empty channel-handoff scheduler.
func NewChanScheduler() *ChanScheduler { return &ChanScheduler{} }

// SetTracer attaches the lifecycle-event recorder.
func (s *ChanScheduler) SetTracer(tr *trace.Recorder) { s.trace = tr }

// Register creates and enrolls a new entry with the given clock.
func (s *ChanScheduler) Register(clock int64) *SchedEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &SchedEntry{clock: clock, seq: s.seq, index: -1, wake: make(chan struct{}, 1)}
	s.seq++
	heap.Push(&s.h, e)
	if s.trace != nil {
		s.trace.Emit(trace.Event{
			Kind: trace.EvThreadStart, T: clock,
			Tid: int32(e.seq), P: -1, Site: -1, Line: -1,
		})
	}
	return e
}

// Go runs body on its own goroutine, the channel scheduler's thread shape:
// the goroutine blocks in its first Sync until the entry becomes minimal.
func (s *ChanScheduler) Go(e *SchedEntry, body func()) { go body() }

// Main runs the root body inline on the calling goroutine. Threads spawned
// with Go may still be running when it returns; the runtime layer waits for
// them separately.
func (s *ChanScheduler) Main(e *SchedEntry, body func()) { body() }

// Sync updates e's clock and blocks until e is the minimal runnable entry.
func (s *ChanScheduler) Sync(e *SchedEntry, clock int64) {
	s.mu.Lock()
	e.clock = clock
	heap.Fix(&s.h, e.index)
	mayRun := s.active == e || s.active == nil
	if mayRun && s.h.min() == e {
		s.active = e
		s.mu.Unlock()
		return
	}
	if mayRun {
		s.active = nil
		s.wakeMinLocked()
	}
	e.parked = true
	s.mu.Unlock()
	<-e.wake
}

// Park removes e from the runnable set and blocks until a Resume makes it
// runnable and it becomes minimal.
func (s *ChanScheduler) Park(e *SchedEntry) {
	s.mu.Lock()
	if e.index >= 0 {
		heap.Remove(&s.h, e.index)
	}
	s.waiting++
	if s.active == e || s.active == nil {
		s.active = nil
		s.wakeMinLocked()
	}
	e.parked = true
	s.mu.Unlock()
	<-e.wake
}

// Resume re-enrolls a parked entry at the given clock.
func (s *ChanScheduler) Resume(e *SchedEntry, clock int64) {
	s.mu.Lock()
	e.clock = clock
	s.waiting--
	heap.Push(&s.h, e)
	s.mu.Unlock()
}

// Exit removes e permanently and hands control to the next minimal entry.
func (s *ChanScheduler) Exit(e *SchedEntry) {
	s.mu.Lock()
	if s.trace != nil {
		s.trace.Emit(trace.Event{
			Kind: trace.EvThreadEnd, T: e.clock,
			Tid: int32(e.seq), P: -1, Site: -1, Line: -1,
		})
	}
	if e.index >= 0 {
		heap.Remove(&s.h, e.index)
	}
	if s.active == e || s.active == nil {
		s.active = nil
		s.wakeMinLocked()
	}
	s.mu.Unlock()
}

// wakeMinLocked transfers activeness to the minimal runnable entry, waking
// its goroutine if it is parked. With an empty heap and parked-off-heap
// entries remaining, every thread is blocked on a future that can never
// complete — a deadlock in the simulated program.
func (s *ChanScheduler) wakeMinLocked() {
	m := s.h.min()
	if m == nil {
		if s.waiting > 0 {
			panic("machine: simulation deadlock — every thread is blocked on a touch")
		}
		return
	}
	s.active = m
	if m.parked {
		m.parked = false
		m.wake <- struct{}{}
	}
}

// entryHeap orders entries by (clock, seq).
type entryHeap []*SchedEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*SchedEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	e.index = -1
	*h = old[:len(old)-1]
	return e
}
func (h entryHeap) min() *SchedEntry {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}
