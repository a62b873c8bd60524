package machine

import (
	"strings"
	"testing"
)

// withScheduler runs a conformance case against a fresh scheduler. The
// sub-test is called "eventloop", the name these cases have always reported
// the event loop's verdict under, so their ids stay comparable across
// commits. Every semantic the runtime relies on is pinned here case by
// case; the battery in internal/bench pins that whole *runs* stay byte
// for byte what the reference scheduler produced.
func withScheduler(t *testing.T, f func(t *testing.T, s *LoopScheduler)) {
	t.Run("eventloop", func(t *testing.T) { f(t, NewLoopScheduler()) })
}

// driveThreads registers one entry per body (at the given start clocks, in
// slice order, so slice index = seq), runs body 0 as the root via Main and
// the rest via Go, and returns once every thread has finished. Bodies
// receive the full entry slice so they can Resume each other.
func driveThreads(s *LoopScheduler, clocks []int64, bodies []func(entries []*SchedEntry)) {
	entries := make([]*SchedEntry, len(bodies))
	for i, c := range clocks {
		entries[i] = s.Register(c)
	}
	for i := 1; i < len(bodies); i++ {
		body := bodies[i]
		s.Go(entries[i], func() { body(entries) })
	}
	s.Main(entries[0], func() { bodies[0](entries) })
}

func TestSchedulerOrdersByClock(t *testing.T) {
	withScheduler(t, func(t *testing.T, s *LoopScheduler) {
		var order []int

		body := func(id int, clocks []int64) func(entries []*SchedEntry) {
			return func(entries []*SchedEntry) {
				e := entries[id-1]
				for _, c := range clocks {
					s.Sync(e, c)
					order = append(order, id)
				}
				s.Exit(e)
			}
		}

		// Thread 1 has clocks 0,10,20; thread 2 has 5,15,25: the
		// interleaving must be strictly by clock: 1,2,1,2,1,2.
		driveThreads(s, []int64{0, 5}, []func([]*SchedEntry){
			body(1, []int64{0, 10, 20}),
			body(2, []int64{5, 15, 25}),
		})
		want := []int{1, 2, 1, 2, 1, 2}
		if len(order) != len(want) {
			t.Fatalf("order = %v", order)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v; want %v", order, want)
			}
		}
	})
}

func TestSchedulerTieBreakBySeq(t *testing.T) {
	withScheduler(t, func(t *testing.T, s *LoopScheduler) {
		var order []int
		body := func(i int) func(entries []*SchedEntry) {
			return func(entries []*SchedEntry) {
				s.Sync(entries[i], 100)
				order = append(order, i)
				s.Exit(entries[i])
			}
		}
		// All three tie at clock 100; execution must follow seq order.
		driveThreads(s, []int64{100, 100, 100},
			[]func([]*SchedEntry){body(0), body(1), body(2)})
		for i, id := range order {
			if id != i {
				t.Fatalf("tie-break order = %v; want registration order", order)
			}
		}
	})
}

// TestSchedulerSameClockFIFOAcrossYields pins the stronger tie-break
// property: entries that keep syncing at the same clock rotate in seq
// (FIFO) order at every yield, not just on first arrival.
func TestSchedulerSameClockFIFOAcrossYields(t *testing.T) {
	withScheduler(t, func(t *testing.T, s *LoopScheduler) {
		const threads, rounds = 3, 4
		var order []int
		body := func(i int) func(entries []*SchedEntry) {
			return func(entries []*SchedEntry) {
				for r := 0; r < rounds; r++ {
					// All threads tie at each round's clock; seq must
					// decide every round identically.
					s.Sync(entries[i], int64(r*10))
					order = append(order, i)
				}
				s.Exit(entries[i])
			}
		}
		driveThreads(s, []int64{0, 0, 0},
			[]func([]*SchedEntry){body(0), body(1), body(2)})
		var want []int
		for r := 0; r < rounds; r++ {
			for i := 0; i < threads; i++ {
				want = append(want, i)
			}
		}
		if len(order) != len(want) {
			t.Fatalf("order = %v", order)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v; want %v", order, want)
			}
		}
	})
}

func TestSchedulerParkResume(t *testing.T) {
	withScheduler(t, func(t *testing.T, s *LoopScheduler) {
		var got int64
		driveThreads(s, []int64{0, 1}, []func([]*SchedEntry){
			func(entries []*SchedEntry) {
				s.Sync(entries[0], 0)
				s.Park(entries[0]) // resumed at clock 500 by the worker
				got = 500
				s.Exit(entries[0])
			},
			func(entries []*SchedEntry) {
				s.Sync(entries[1], 1)
				s.Sync(entries[1], 400)
				s.Resume(entries[0], 500)
				s.Exit(entries[1])
			},
		})
		if got != 500 {
			t.Fatal("parked thread did not resume")
		}
	})
}

// TestSchedulerParkEmptyHeapWakeup exercises the wake path where the
// resumed entry is the ONLY runnable thread left: the resumer exits with
// an otherwise-empty heap, so the handoff must find and wake the parked
// waiter rather than declaring the machine idle (or deadlocked).
func TestSchedulerParkEmptyHeapWakeup(t *testing.T) {
	withScheduler(t, func(t *testing.T, s *LoopScheduler) {
		var got int64
		driveThreads(s, []int64{0, 1}, []func([]*SchedEntry){
			func(entries []*SchedEntry) {
				s.Sync(entries[0], 0)
				s.Park(entries[0])
				got = 700
				s.Exit(entries[0])
			},
			func(entries []*SchedEntry) {
				s.Sync(entries[1], 1)
				s.Resume(entries[0], 700)
				s.Exit(entries[1]) // heap: only the re-enrolled waiter
			},
		})
		if got != 700 {
			t.Fatal("waiter not woken after resume + exit")
		}
	})
}

func TestSchedulerDeadlockPanics(t *testing.T) {
	withScheduler(t, func(t *testing.T, s *LoopScheduler) {
		e := s.Register(0)
		defer func() {
			if recover() == nil {
				t.Fatal("expected deadlock panic")
			}
		}()
		// The panic surfaces on this goroutine: Main raises it once the
		// only thread has parked.
		s.Main(e, func() {
			s.Sync(e, 0)
			s.Park(e) // nobody will ever resume us
		})
	})
}

// TestSchedulerDeadlockPanicsInChain is the deadlock where a thread parks
// while another thread's Sync, not Main, had resumed it: control comes back
// into that Sync, which picks its own thread, and when that one parks too
// the panic must still be Main's.
func TestSchedulerDeadlockPanicsInChain(t *testing.T) {
	withScheduler(t, func(t *testing.T, s *LoopScheduler) {
		defer func() {
			if got, _ := recover().(string); !strings.Contains(got, "simulation deadlock") {
				t.Fatalf("recovered %q, want Main's deadlock panic", got)
			}
		}()
		driveThreads(s, []int64{0, 1}, []func([]*SchedEntry){
			func(entries []*SchedEntry) {
				s.Sync(entries[0], 0)
				s.Sync(entries[0], 10) // resumes thread 1 from here
				s.Park(entries[0])     // nobody is left to resume us
			},
			func(entries []*SchedEntry) {
				s.Sync(entries[1], 1)
				if !entries[0].nested {
					t.Error("thread 0 did not resume thread 1 from its Sync")
				}
				s.Park(entries[1])
			},
		})
	})
}

// TestSchedulerRefusesReuseAfterPanic: a panic that leaves Main leaves the
// heap, the handoff and the chain's nested marks mid-flight, so a caller
// that recovered must not be able to run anything on them.
func TestSchedulerRefusesReuseAfterPanic(t *testing.T) {
	withScheduler(t, func(t *testing.T, s *LoopScheduler) {
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				t.Helper()
				const want = "machine: scheduler reused after a panic in Main"
				if got := recover(); got != want {
					t.Fatalf("%s on a broken scheduler: recovered %v, want %q", what, got, want)
				}
			}()
			f()
		}
		func() {
			defer func() { recover() }()
			driveThreads(s, []int64{0, 1}, []func([]*SchedEntry){
				func(entries []*SchedEntry) {
					s.Sync(entries[0], 0)
					s.Sync(entries[0], 10)
				},
				func(entries []*SchedEntry) {
					s.Sync(entries[1], 1)
					panic("kernel bug") // thread 0 is nested below us
				},
			})
		}()
		mustPanic("Register", func() { s.Register(0) })
		mustPanic("Main", func() { s.Main(&SchedEntry{index: -1}, func() {}) })
	})
}
