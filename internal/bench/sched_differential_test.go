package bench_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/trace"

	_ "repro/internal/bench/all"
)

// batteryScale keeps the 120-run battery fast; the digest goldens pin the
// default scheduler at scale 16 separately.
const batteryScale = 64

// batteryKernels is the ten paper kernels, spelled out rather than taken
// from bench.Names(): other tests register throwaway benchmarks that have
// no runtime behind them.
var batteryKernels = []string{
	"treeadd", "power", "tsp", "mst", "bisort",
	"voronoi", "em3d", "barneshut", "perimeter", "health",
}

// schedOutcome is everything a run exposes that could possibly tell the
// two schedulers apart.
type schedOutcome struct {
	digest trace.Digest
	heap   uint64
	cycles int64
	check  uint64
	stats  machine.StatsSnapshot
}

func runWithSched(t *testing.T, name string, kind machine.SchedKind, cfg bench.Config) schedOutcome {
	t.Helper()
	info, ok := bench.Get(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	rec := trace.New(0)
	var rtm *rt.Runtime
	cfg.Sched = kind
	cfg.Trace = rec
	cfg.RuntimeHook = func(r *rt.Runtime) { rtm = r }
	res := info.Run(cfg)
	if !res.Verified() {
		t.Fatalf("%s under %s scheduler: check %#x != %#x", name, kind, res.Check, res.WantCheck)
	}
	if rtm == nil {
		t.Fatalf("%s under %s scheduler: RuntimeHook never ran", name, kind)
	}
	return schedOutcome{
		digest: rec.Digest(),
		heap:   rtm.HeapFingerprint(),
		cycles: res.Cycles,
		check:  res.Check,
		stats:  res.Stats,
	}
}

// TestSchedulerDigestEquivalence is the digest battery gating the event
// loop: all ten kernels × three coherence schemes × P ∈ {1, 4}, run once
// on each scheduler implementation. TraceDigest (event order, content and
// per-kind counts), HeapFingerprint, makespan, checksum and every machine
// statistic must be byte-identical — the event loop is a pure reordering
// of bookkeeping, never of simulated events.
// Under the race detector the battery trims itself to one parallel
// configuration per kernel (scheme rotated by kernel so all three appear):
// race instrumentation multiplies the channel scheduler's goroutine
// handoffs ~10×, the serial P=1 runs have no concurrency to check, and
// the full sweep's equivalence guarantee is already enforced by every
// non-race test job.
func TestSchedulerDigestEquivalence(t *testing.T) {
	for ki, name := range batteryKernels {
		for si, s := range schemes {
			for _, procs := range []int{1, 4} {
				if raceDetectorEnabled && (procs == 1 || si != ki%len(schemes)) {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/P%d", name, s.name, procs), func(t *testing.T) {
					cfg := bench.Config{Procs: procs, Scheme: s.kind, Scale: batteryScale}
					loop := runWithSched(t, name, machine.SchedEventLoop, cfg)
					chan_ := runWithSched(t, name, machine.SchedChannel, cfg)
					if loop.digest != chan_.digest {
						t.Errorf("trace digest diverged:\n  eventloop: %s\n  channel:   %s",
							loop.digest, chan_.digest)
					}
					if loop.heap != chan_.heap {
						t.Errorf("heap fingerprint diverged: %016x vs %016x", loop.heap, chan_.heap)
					}
					if loop.cycles != chan_.cycles {
						t.Errorf("makespan diverged: %d vs %d cycles", loop.cycles, chan_.cycles)
					}
					if loop.check != chan_.check {
						t.Errorf("checksum diverged: %#x vs %#x", loop.check, chan_.check)
					}
					if loop.stats != chan_.stats {
						t.Errorf("statistics diverged:\n  eventloop: %+v\n  channel:   %+v",
							loop.stats, chan_.stats)
					}
				})
			}
		}
	}
}
