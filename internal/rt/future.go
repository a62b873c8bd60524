package rt

import (
	"repro/internal/machine"
	"repro/internal/trace"
)

// Future is the result of a futurecall (paper §2): work that may proceed in
// parallel with its parent context. Olden implements futures with lazy task
// creation — the continuation only becomes a real thread when the body
// migrates away and the processor would otherwise sit idle.
//
// In this runtime the body runs as its own logical thread under the
// virtual-time scheduler. Because the parent and the body charge the same
// processor until one of them migrates, the virtual-time serialization
// reproduces the lazy-task-creation economics: if the body never migrates,
// no other processor ever does the continuation's work and the schedule
// collapses to the sequential one plus the small futurecall overhead.
//
// A Future has no lock: the body that completes it and the threads that
// touch it are coroutines of one dispatcher, and each reads or writes these
// fields only while it is the running one.
type Future[T any] struct {
	done    bool
	v       T
	when    int64 // body completion time
	waiters []*machine.SchedEntry
}

// Spawn issues a futurecall: body runs logically in parallel with the
// caller, starting on the caller's processor at the caller's time. When the
// body completes away from its spawn processor, a return-stub migration
// brings its context back, exactly like a procedure return.
func Spawn[T any](t *Thread, body func(child *Thread) T) *Future[T] {
	t.sync()
	t.rt.M.Stats.Futures++
	t.chargeHere(t.rt.M.Cost.FutureSpawn)
	child := &Thread{
		rt:      t.rt,
		loc:     t.loc,
		now:     t.now,
		arrived: t.now,
		frames:  make([]frame, 1),
	}
	child.se = t.rt.Sched.Register(child.now)
	if tr := t.rt.M.Tracer; tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvFutureSpawn, T: t.now,
			P: int16(t.loc), Tid: t.tid(), Site: -1, Line: -1,
			Arg: int64(child.tid()),
		})
	}
	f := &Future[T]{}
	t.rt.Sched.Go(child.se, func() {
		// Call returns the child to its spawn processor via the
		// return stub if the body migrated.
		v := Call(child, func() T { return body(child) })
		child.Finish()
		f.done, f.v, f.when = true, v, child.now
		// Wake touchers before leaving the scheduler so hand-off
		// points are deterministic.
		for _, w := range f.waiters {
			t.rt.Sched.Resume(w, child.now)
		}
		f.waiters = nil
		t.rt.Sched.Exit(child.se)
	})
	return f
}

// Touch blocks until the future's value is available and synchronizes the
// toucher's clock with the body's completion time.
func (f *Future[T]) Touch(t *Thread) T {
	t.sync()
	start := t.now
	if !f.done {
		f.waiters = append(f.waiters, t.se)
		t.rt.Sched.Park(t.se)
	}
	t.now = max(t.now, f.when)
	if tr := t.rt.M.Tracer; tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvFutureTouch, T: start, Dur: t.now - start,
			P: int16(t.loc), Tid: t.tid(), Site: -1, Line: -1,
		})
	}
	t.rt.M.Stats.Touches++
	t.rt.mTouchBlock.Observe(t.now - start)
	t.chargeHere(t.rt.M.Cost.Touch)
	return f.v
}
