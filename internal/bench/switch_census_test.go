package bench_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/rt"

	_ "repro/internal/bench/all"
)

const censusPath = "testdata/switch_census.golden"

// TestSwitchCensus pins what the virtual-time order asks of the scheduler
// and what the scheduler pays for it: per kernel (local knowledge, P=4,
// scale 1/64, build and kernel phases together) the Sync calls, the picks —
// times a thread is given control — the coroutine switches they cost, and
// the operations run as data, with no thread given control (sched_loop.go).
// Picks and operations follow from the order alone: every load, store and
// Work chunk a waiting thread publishes runs as data. A hub dispatcher makes exactly 2 × picks;
// the resume chain (machine/sched_loop.go) must never make more, and over
// the ten kernels at most 0.80 of that. A change of order moves syncs and
// picks (and the battery); a change of the switching discipline moves
// switches only. Refresh with `make update-goldens`.
//
// The runs also must leave no goroutine behind: every coroutine's body
// ended, whichever thread's Sync had resumed it.
func TestSwitchCensus(t *testing.T) {
	before := runtime.NumGoroutine()
	g := openGolden(t, censusPath)
	var lines []string
	var hub, paid int64
	for i, name := range batteryKernels {
		info, ok := bench.Get(name)
		if !ok {
			t.Fatalf("benchmark %q not registered", name)
		}
		var rtm *rt.Runtime
		res := info.Run(bench.Config{
			Procs: 4, Scheme: coherence.LocalKnowledge, Scale: batteryScale,
			RuntimeHook: func(r *rt.Runtime) { rtm = r },
		})
		if !res.Verified() {
			t.Fatalf("%s: check %#x != %#x", name, res.Check, res.WantCheck)
		}
		syncs, picks, switches, ops := rtm.Sched.Census()
		if switches > 2*picks {
			t.Errorf("%s: %d switches for %d picks, more than a hub dispatcher's %d", name, switches, picks, 2*picks)
		}
		hub += 2 * picks
		paid += switches
		lines = append(lines, fmt.Sprintf("%s %d %d %d %d", name, syncs, picks, switches, ops))
		g.check(t, i, lines[i])
	}
	if float64(paid) > 0.80*float64(hub) {
		t.Errorf("%d switches over the ten kernels, %.3f of a hub dispatcher's %d; want at most 0.80", paid, float64(paid)/float64(hub), hub)
	}
	g.finish(t, lines)
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after the ten kernels, %d before them", n, before)
	}
}
