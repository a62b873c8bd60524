package machine

// SchedEntry is one thread's handle in the scheduler (LoopScheduler,
// sched_loop.go). Nothing in it is shared: every access happens on the
// single control flow of Main's caller, with next/yield the coroutine
// switch points.
type SchedEntry struct {
	clock int64
	seq   uint64
	index int32 // heap slot; -1 while running, offRun while parked or exited

	// nested marks a level of the resume chain: the thread is inside Sync,
	// on the heap, suspended in a next call it made on the thread it handed
	// off to. Nobody may call next on it; picking it means yielding back
	// down the chain until it finds itself in handoff.
	nested bool

	// op is the operation the thread published when its Sync handed off and
	// ran says somebody ran it; the Sync clears both. The entry is 64 bytes.
	ran bool
	op  Op

	// Coroutine handles: next resumes the thread's coroutine until it
	// yields (false when the body has returned) and is called by Main or
	// by the running thread's Sync; yield returns control to whichever of
	// them made that call; stop releases the coroutine.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Op is a thread's next step when it needs no stack of its own (a load, a
// store, a Work chunk). RunOp performs it at the entry's clock, instead of a
// switch to the thread, and returns the clock after it.
type Op interface {
	RunOp() int64
}

// offRun is the index of an entry that is neither on the heap nor running:
// Sync, which only the running entry may call, panics on it.
const offRun = -2

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
