package bench_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
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
// The runs, the battery's local P=4 ones, also must leave no goroutine
// behind: every coroutine's body ended, whichever thread's Sync had
// resumed it.
func TestSwitchCensus(t *testing.T) {
	g := openGolden(t, censusPath)
	var lines []string
	var hub, paid int64
	leaked := 0
	for i, name := range batteryKernels {
		r := shared(t, name, bench.Config{Procs: 4, Scheme: coherence.LocalKnowledge, Scale: batteryScale})
		c := r.census
		if c.switches > 2*c.picks {
			t.Errorf("%s: %d switches for %d picks, more than a hub dispatcher's %d", name, c.switches, c.picks, 2*c.picks)
		}
		hub += 2 * c.picks
		paid += c.switches
		leaked += r.leaked
		lines = append(lines, fmt.Sprintf("%s %d %d %d %d", name, c.syncs, c.picks, c.switches, c.ops))
		g.check(t, i, lines[i])
	}
	if float64(paid) > 0.80*float64(hub) {
		t.Errorf("%d switches over the ten kernels, %.3f of a hub dispatcher's %d; want at most 0.80", paid, float64(paid)/float64(hub), hub)
	}
	g.finish(t, lines)
	if leaked != 0 {
		t.Errorf("%d goroutines left behind by the ten kernels' runs", leaked)
	}
}
