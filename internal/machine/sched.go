package machine

// SchedEntry is one thread's handle in the scheduler (LoopScheduler,
// sched_loop.go). Nothing in it is shared: every access happens on the
// dispatcher goroutine's single control flow, with next/yield the
// coroutine switch points.
type SchedEntry struct {
	clock int64
	seq   uint64
	index int // heap slot; -1 when off-heap (running, parked or exited)

	// Coroutine handles: next resumes the thread's coroutine until its
	// next yield (false when the body has returned), yield returns
	// control to the dispatcher, stop releases the coroutine.
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
