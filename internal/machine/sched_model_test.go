package machine

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// orderModel is the reference for the (clock, seq) execution order: the
// runnable entries' keys in a plain slice, the minimum found by linear scan.
// It is the whole specification the scheduler implements — no heap, no
// handoff, no threads.
type orderModel struct {
	runnable []modelKey
}

type modelKey struct {
	clock int64
	seq   uint64
}

// set enrolls seq at clock or moves it there (Register, Sync, Resume).
func (m *orderModel) set(seq uint64, clock int64) {
	for i := range m.runnable {
		if m.runnable[i].seq == seq {
			m.runnable[i].clock = clock
			return
		}
	}
	m.runnable = append(m.runnable, modelKey{clock, seq})
}

// remove takes seq out of the runnable set (Park, Exit).
func (m *orderModel) remove(seq uint64) {
	for i := range m.runnable {
		if m.runnable[i].seq == seq {
			m.runnable = append(m.runnable[:i], m.runnable[i+1:]...)
			return
		}
	}
}

// min returns the entry that may run: smallest clock, ties to the smaller seq.
func (m *orderModel) min() modelKey {
	best := m.runnable[0]
	for _, k := range m.runnable[1:] {
		if k.clock < best.clock || k.clock == best.clock && k.seq < best.seq {
			best = k
		}
	}
	return best
}

// A script is one thread of a random futures-shaped program: steps that
// advance the clock and Sync, some of which then spawn a child (Register +
// Go) or touch one spawned earlier (Park until the child's last step
// Resumes the toucher). A child never waits on its parent, so every program
// terminates.
type script []scriptOp

type scriptOp struct {
	delta int64  // clock advance before the step's Sync; zero makes ties
	spawn script // non-nil: spawn this child after the Sync
	touch int    // >= 0: touch the touch-th child spawned so far
}

// genScript draws a thread and, recursively, the threads it spawns; budget
// bounds the entries the whole program registers.
func genScript(rng *rand.Rand, budget *int) script {
	sc := make(script, 1+rng.Intn(8))
	spawned := 0
	for i := range sc {
		op := scriptOp{delta: []int64{0, 0, 1, 2, 3, 17}[rng.Intn(6)], touch: -1}
		switch r := rng.Intn(10); {
		case r < 4 && *budget > 0:
			*budget--
			op.spawn = genScript(rng, budget)
			spawned++
		case r < 7 && spawned > 0:
			op.touch = rng.Intn(spawned)
		}
		sc[i] = op
	}
	return sc
}

// latch is a spawned thread's completion, the part of a future the
// scheduler sees.
type latch struct {
	done    bool
	when    int64
	waiters []*SchedEntry
}

// modelRun executes one script tree on a scheduler with the model riding
// along: every scheduler call is mirrored into the model, and each time a
// thread comes back from Sync or Park it must be alone and be the model's
// minimum. Since the order is strict and total, that pins which body runs
// at every scheduling point.
type modelRun struct {
	t *testing.T
	s *LoopScheduler

	model   orderModel
	nextSeq uint64
	running *SchedEntry
	all     []*SchedEntry // every entry registered, for checkLoopHeap

	// ops: a step that neither spawns nor touches is published as an
	// operation (syncOp); asData and bySelf count who ran them.
	ops            bool
	asData, bySelf int
}

func (r *modelRun) register(clock int64) *SchedEntry {
	e := r.s.Register(clock)
	if e.Seq() != r.nextSeq {
		r.t.Errorf("Register handed out seq %d, want %d", e.Seq(), r.nextSeq)
	}
	r.nextSeq++
	r.model.set(e.Seq(), clock)
	r.all = append(r.all, e)
	return e
}

// resumed checks the three things that must hold whenever a thread gets the
// virtual processor: nobody else has it, it is the model's minimum, and the
// heap and the resume chain's marks are consistent.
func (r *modelRun) resumed(e *SchedEntry, clock int64) {
	if r.running != nil {
		r.t.Errorf("entry %d runs while entry %d still does", e.Seq(), r.running.Seq())
	}
	r.running = e
	checkLoopHeap(r.t, r.s, r.all, e)
	if m := r.model.min(); m.seq != e.Seq() {
		r.t.Errorf("entry %d runs at clock %d but the model's minimum is entry %d at clock %d",
			e.Seq(), clock, m.seq, m.clock)
	}
}

// release gives the virtual processor up before a call that may switch. A
// thread that has not had it yet (its body just started) has none to give.
func (r *modelRun) release(e *SchedEntry) {
	if r.running == e {
		r.running = nil
	}
}

func (r *modelRun) sync(e *SchedEntry, clock int64) {
	r.release(e)
	r.model.set(e.Seq(), clock)
	r.s.Sync(e, clock)
	r.resumed(e, clock)
}

// syncOp syncs e at *clock publishing its step, an operation that advances
// *clock by delta. Whoever runs it — Main or a thread picking, or e itself
// when SyncOp reports nobody did — it must run exactly once, while nobody
// else runs and e is the model's minimum at *clock.
func (r *modelRun) syncOp(e *SchedEntry, clock *int64, delta int64) {
	r.release(e)
	r.model.set(e.Seq(), *clock)
	runs := 0
	op := opFunc(func() int64 {
		runs++
		if r.running != nil && r.running != e {
			r.t.Errorf("entry %d's operation runs while entry %d does", e.Seq(), r.running.Seq())
		}
		if m := r.model.min(); m.seq != e.Seq() || m.clock != *clock {
			r.t.Errorf("entry %d's operation runs at clock %d but the model's minimum is entry %d at clock %d",
				e.Seq(), *clock, m.seq, m.clock)
		}
		*clock += delta
		r.model.set(e.Seq(), *clock)
		return *clock
	})
	ran := r.s.SyncOp(e, *clock, op)
	if ran != (runs == 1) {
		r.t.Errorf("entry %d: SyncOp reports ran=%v after its operation ran %d times", e.Seq(), ran, runs)
	}
	r.resumed(e, *clock)
	if ran {
		r.asData++
	} else {
		r.bySelf++
		op.RunOp()
	}
	if runs != 1 {
		r.t.Errorf("entry %d's operation ran %d times", e.Seq(), runs)
	}
}

// opFunc is an Op made of a closure.
type opFunc func() int64

func (f opFunc) RunOp() int64 { return f() }

func (r *modelRun) body(e *SchedEntry, sc script, clock int64, own *latch) func() {
	return func() {
		var children []*latch
		for _, op := range sc {
			if r.ops && op.spawn == nil && op.touch < 0 {
				r.syncOp(e, &clock, op.delta)
				continue
			}
			clock += op.delta
			r.sync(e, clock)
			switch {
			case op.spawn != nil:
				child, l := r.register(clock), &latch{}
				children = append(children, l)
				r.s.Go(child, r.body(child, op.spawn, clock, l))
			case op.touch >= 0:
				l := children[op.touch]
				if !l.done {
					l.waiters = append(l.waiters, e)
					r.release(e)
					r.model.remove(e.Seq())
					r.s.Park(e)
					r.resumed(e, clock)
				}
				if l.when > clock {
					clock = l.when
				}
			}
		}
		r.sync(e, clock+1)
		own.done, own.when = true, clock+1
		for _, w := range own.waiters {
			r.model.set(w.Seq(), clock+1)
			r.s.Resume(w, clock+1)
		}
		r.release(e)
		r.model.remove(e.Seq())
		r.s.Exit(e)
	}
}

// TestSchedulerMatchesOrderModel runs seeded random programs of 1–200
// entries against the linear-scan model, and again ("ops") with every step
// that neither spawns nor touches published as an operation.
func TestSchedulerMatchesOrderModel(t *testing.T) {
	t.Run("eventloop", func(t *testing.T) { matchOrderModel(t, false) })
	t.Run("ops", func(t *testing.T) { matchOrderModel(t, true) })
}

func matchOrderModel(t *testing.T, ops bool) {
	maxEntries, asData, bySelf := 0, 0, 0
	// One scheduler per seed, so not withScheduler.
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := []int{0, 1, 2, 14, 60, 199}[seed%6]
		entries := budget + 1
		root := genScript(rng, &budget)
		entries -= budget
		maxEntries = max(maxEntries, entries)

		// Two Main calls on one scheduler, as phased benchmarks do.
		r := &modelRun{t: t, s: NewLoopScheduler(), ops: ops}
		for phase := 0; phase < 2; phase++ {
			e := r.register(0)
			r.s.Main(e, r.body(e, root, 0, &latch{}))
			if len(r.model.runnable) != 0 {
				t.Fatalf("seed %d: %d entries still runnable after Main", seed, len(r.model.runnable))
			}
		}
		if int(r.nextSeq) != 2*entries {
			t.Fatalf("seed %d: registered %d entries, the script has %d", seed, r.nextSeq, 2*entries)
		}
		if t.Failed() {
			t.Fatalf("seed %d (%d entries) diverged from the model", seed, entries)
		}
		asData, bySelf = asData+r.asData, bySelf+r.bySelf
	}
	if maxEntries != 200 {
		t.Errorf("largest program registered %d entries, want the full 200", maxEntries)
	}
	if ops && (asData == 0 || bySelf == 0) {
		t.Errorf("%d operations ran as data and %d on their own thread; want both", asData, bySelf)
	}
}

// checkLoopHeap verifies the event loop's state from inside the running
// thread: every slot's entry knows its slot, no child orders before its
// parent, everything else — the running entry included — is off-heap with
// index -1 and no handoff pending, every nested entry (a level of the
// resume chain, suspended in Sync) is on the heap, and the running entry is
// not nested.
func checkLoopHeap(t *testing.T, s *LoopScheduler, all []*SchedEntry, running *SchedEntry) {
	t.Helper()
	if s.handoff != nil {
		t.Fatalf("handoff to entry %d still pending while entry %d runs", s.handoff.seq, running.seq)
	}
	for i, e := range s.h {
		if int(e.index) != i {
			t.Fatalf("entry %d sits in slot %d with index %d", e.seq, i, e.index)
		}
		if i > 0 && e.less(s.h[(i-1)/2]) {
			t.Fatalf("entry %d in slot %d orders before its parent", e.seq, i)
		}
	}
	onHeap := func(e *SchedEntry) bool {
		return e.index >= 0 && int(e.index) < len(s.h) && s.h[e.index] == e
	}
	if onHeap(running) {
		t.Fatalf("running entry %d is on the heap", running.seq)
	}
	if running.nested {
		t.Fatalf("running entry %d is marked nested", running.seq)
	}
	for _, e := range all {
		if !onHeap(e) && e.index != -1 && e.index != offRun {
			t.Fatalf("off-heap entry %d has index %d", e.seq, e.index)
		}
		if e.nested && !onHeap(e) {
			t.Fatalf("entry %d is nested but not on the heap", e.seq)
		}
	}
}

// TestLoopSchedulerFusedHandoff checks the fused step directly: when Sync
// yields, the entry that runs next is the one that was the heap minimum,
// the yielding entry has taken a heap slot, and the index fields are right
// at every point a body can observe them. Each thread takes eight steps,
// and the steps must happen in (clock, seq) order, which a sort of every
// step's key gives. The same threads then publish each step as an
// operation, run by whoever finds the thread minimal: the steps must
// happen in the same order, each exactly once.
func TestLoopSchedulerFusedHandoff(t *testing.T) {
	for _, n := range []int{1, 2, 3, 15, 160} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			for _, ops := range []bool{false, true} {
				fusedHandoff(t, n, ops)
			}
		})
	}
}

func fusedHandoff(t *testing.T, n int, ops bool) {
	s := NewLoopScheduler()
	all := make([]*SchedEntry, n)
	for i := range all {
		all[i] = s.Register(int64(i * 7 % 13)) // assorted clocks, with ties
	}
	// delta is the clock advance before a thread's step; zero steps keep
	// ties in play.
	delta := func(seq uint64, step int) int64 { return int64((step + int(seq)) % 4 * 3) }
	type key struct {
		clock int64
		seq   uint64
		step  int
	}
	var want, got []key
	for _, e := range all {
		clock := e.clock
		for step := 0; step < 8; step++ {
			clock += delta(e.seq, step)
			want = append(want, key{clock, e.seq, step})
		}
	}
	slices.SortFunc(want, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.clock, b.clock), cmp.Compare(a.seq, b.seq), cmp.Compare(a.step, b.step))
	})

	var expect *SchedEntry // who must run next; nil when unknown
	handoffs := 0
	arrived := func(e *SchedEntry) {
		if expect != nil && expect != e {
			t.Fatalf("ops=%v: entry %d runs, want entry %d", ops, e.seq, expect.seq)
		}
		checkLoopHeap(t, s, all, e)
	}
	body := func(e *SchedEntry) func() {
		return func() {
			arrived(e)
			clock := e.clock + delta(e.seq, 0)
			for step := 0; step < 8; step++ {
				// The step, which ends at the next step's clock.
				run := opFunc(func() int64 {
					got = append(got, key{clock, e.seq, step})
					if step < 7 {
						clock += delta(e.seq, step+1)
					}
					return clock
				})
				if !ops {
					expect = e
					if len(s.h) > 0 && !(&SchedEntry{clock: clock, seq: e.seq}).less(s.h[0]) {
						expect = s.h[0]
						handoffs++
					}
					s.Sync(e, clock)
					arrived(e)
					run()
					continue
				}
				if !s.SyncOp(e, clock, run) {
					run()
				}
				arrived(e)
			}
			expect = nil
			if len(s.h) > 0 && !ops {
				expect = s.h[0] // after a body returns its resumer pops
			}
			s.Exit(e)
		}
	}
	for _, e := range all[1:] {
		s.Go(e, body(e))
	}
	s.Main(all[0], body(all[0]))
	if len(s.h) != 0 || s.handoff != nil {
		t.Fatalf("ops=%v: Main returned with %d entries on the heap, handoff %v", ops, len(s.h), s.handoff)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ops=%v: steps ran in the order %v, want %v", ops, got, want)
	}
	_, _, _, ran := s.Census()
	switch {
	case n > 1 && !ops && handoffs == 0:
		t.Fatal("no Sync yielded: the fused step was not exercised")
	case n > 1 && ops && ran == 0:
		t.Fatal("no operation ran as data")
	}
}

// chainRun registers four threads at clocks 0..3 and runs them under the
// model. Thread i syncs at i, then at 10+i, which hands off to thread i+1,
// so when thread 3 reaches its second Sync the chain is Main → 0 → 1 → 2 →
// 3 and the pick, thread 0, sits three levels down. atTop runs in thread 3
// at that point; order is a thread's number for each time one was given the
// virtual processor.
func chainRun(t *testing.T, atTop func(r *modelRun)) (r *modelRun, order []int) {
	r = &modelRun{t: t, s: NewLoopScheduler()}
	for i := 0; i < 4; i++ {
		r.register(int64(i))
	}
	body := func(i int) func() {
		e := r.all[i]
		return func() {
			r.sync(e, int64(i))
			order = append(order, i)
			if i == 3 {
				atTop(r)
			}
			r.sync(e, int64(10+i))
			order = append(order, i)
			r.release(e)
			r.model.remove(e.Seq())
			r.s.Exit(e)
		}
	}
	for i := 1; i < 4; i++ {
		r.s.Go(r.all[i], body(i))
	}
	r.s.Main(r.all[0], body(0))
	return r, order
}

// TestNestedChainUnwind pins the unwind: a pick three levels down the
// chain is reached by three yields, in the model's order, and the whole
// program costs 14 switches where a hub dispatcher makes 16.
func TestNestedChainUnwind(t *testing.T) {
	r, order := chainRun(t, func(r *modelRun) {
		for i, e := range r.all[:3] {
			if !e.nested {
				t.Errorf("thread %d is not nested while thread 3 runs above it", i)
			}
		}
	})
	if got, want := fmt.Sprint(order), "[0 1 2 3 0 1 2 3]"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
	// Switches: Main→0→1→2→3 (4 next calls), three unwind yields down to
	// thread 0, its body's end back to Main, then a next call and a body's
	// end for each of threads 1, 2 and 3.
	syncs, picks, switches, ops := r.s.Census()
	if syncs != 8 || picks != 8 || switches != 14 || ops != 0 {
		t.Errorf("census = %d syncs, %d picks, %d switches, %d ops; want 8, 8, 14, 0", syncs, picks, switches, ops)
	}
	for i, e := range r.all {
		if e.nested {
			t.Errorf("thread %d is still nested after Main", i)
		}
	}
}

// TestPanicCrossesNestedChain panics in the body at the top of a chain
// three levels deep: every next call on the way down re-raises the value, so
// Main's caller must recover that very value.
func TestPanicCrossesNestedChain(t *testing.T) {
	sentinel := new(int)
	defer func() {
		if got := recover(); got != sentinel {
			t.Fatalf("recovered %v, want the sentinel the body panicked with", got)
		}
	}()
	chainRun(t, func(*modelRun) { panic(sentinel) })
	t.Fatal("Main returned")
}

// BenchmarkHandoff prices one virtual-time handoff at the runnable
// populations the kernels were measured at (mst/em3d/tsp about 3,
// treeadd/bisort/voronoi 12–15, power/perimeter 77–210), in the two shapes
// the switch census found. In the plain cases clocks leapfrog — every Sync
// moves its thread behind all the others — which is a round-robin, the
// resume chain's worst case at 2(n−1)/n switches a handoff. In pair-in-n two
// entries leapfrog each other while the other n−2 wait at far-future clocks:
// a future body and its parent's continuation sharing a processor, one
// switch a handoff. Every Sync yields, so ns/op is ns per handoff. The -op
// cases publish each step as an operation (SyncOp), so a handoff runs the
// waiting thread's step as data: ops/op is the share that did.
func BenchmarkHandoff(b *testing.B) {
	for _, c := range []struct {
		name    string
		n, pair int // pair entries of n leapfrog; the rest wait
		ops     bool
	}{
		{"2", 2, 2, false}, {"15", 15, 15, false}, {"160", 160, 160, false},
		{"pair-in-15", 15, 2, false}, {"pair-in-160", 160, 2, false},
		{"15-op", 15, 15, true}, {"pair-in-15-op", 15, 2, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewLoopScheduler()
			remaining := b.N
			body := func(e *SchedEntry, clock int64) func() {
				step := opFunc(func() int64 {
					remaining--
					clock += int64(c.pair)
					return clock
				})
				return func() {
					for remaining > 0 {
						if !c.ops {
							remaining--
							clock += int64(c.pair)
							s.Sync(e, clock)
						} else if !s.SyncOp(e, clock, step) {
							step()
						}
					}
					s.Exit(e)
				}
			}
			entries := make([]*SchedEntry, c.n)
			for i := range entries {
				clock := int64(i)
				if i >= c.pair {
					clock += 1 << 40
				}
				entries[i] = s.Register(clock)
			}
			for _, e := range entries[1:] {
				s.Go(e, body(e, e.clock))
			}
			b.ResetTimer()
			s.Main(entries[0], body(entries[0], 0))
			_, _, switches, ops := s.Census()
			b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
			b.ReportMetric(float64(ops)/float64(b.N), "ops/op")
		})
	}
}
