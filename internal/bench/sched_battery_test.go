package bench_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/rt"
	"repro/internal/trace"

	_ "repro/internal/bench/all"
)

// batteryScale keeps the 60-run battery fast; the digest goldens pin three
// kernels at scale 16 separately.
const batteryScale = 64

const batteryPath = "testdata/sched_battery.golden"

// batteryKernels is the ten paper kernels, spelled out rather than taken
// from bench.Names(): other tests register throwaway benchmarks that have
// no runtime behind them.
var batteryKernels = []string{
	"treeadd", "power", "tsp", "mst", "bisort",
	"voronoi", "em3d", "barneshut", "perimeter", "health",
}

// batteryLine runs one configuration and renders everything the run
// exposes that a change of execution order could move: the trace digest
// (event order, content and per-kind counts), the heap fingerprint, the
// makespan, the checksum and every machine statistic. It checks each
// executed site's mechanism against the kernel's claims and returns what
// the cross-scheme claims compare.
func batteryLine(t *testing.T, name, scheme string, cfg bench.Config, claims kernelClaims) (string, schemeObs) {
	t.Helper()
	info, ok := bench.Get(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	rec := trace.New(0)
	var rtm *rt.Runtime
	cfg.Trace = rec
	cfg.RuntimeHook = func(r *rt.Runtime) { rtm = r }
	res := info.Run(cfg)
	if !res.Verified() {
		t.Fatalf("%s: check %#x != %#x", name, res.Check, res.WantCheck)
	}
	if rtm == nil {
		t.Fatalf("%s: RuntimeHook never ran", name)
	}
	// One quantity, two counters (the caches' and the machine's): they
	// are reset together at the phase boundary and must stay equal.
	if res.Pages != res.Stats.PagesCached {
		t.Errorf("%s: Result.Pages %d != Stats.PagesCached %d", name, res.Pages, res.Stats.PagesCached)
	}
	for _, msg := range mechFindings(claims.rep, rtm.SiteStats()) {
		t.Error(msg)
	}
	o := schemeObs{scheme: scheme, check: res.Check, kernelAccess: rec.AccessDigest()}
	_, o.buildAccess, _ = rtm.BuildPhaseDigest()
	o.buildHeap, o.buildOK = rtm.BuildHeapFingerprint()
	return fmt.Sprintf("%s %s P=%d scale=1/%d %s heap=%016x cycles=%d check=%#x stats=%+v",
		name, scheme, cfg.Procs, cfg.Scale, rec.Digest(),
		rtm.HeapFingerprint(), res.Cycles, res.Check, res.Stats), o
}

// TestSchedulerDigestEquivalence is the digest battery gating the
// scheduler: all ten kernels × three coherence schemes × P ∈ {1, 4}, each
// compared with its line in testdata/sched_battery.golden. Those sixty
// lines are the reference scheduler's verdict: they were written by the
// channel-handoff scheduler (one goroutine per thread, a mutex, the
// standard library's heap — no code in common with the event loop) in the
// last commit that had it, where the event loop reproduced them byte for
// byte (DESIGN.md §13). A scheduler change that moves any of the five
// outcomes of any configuration reorders simulated events and fails here;
// a change that is meant to move them (cost model, protocol, event
// vocabulary) reviews the diff and regenerates with `make update-goldens`.
//
// The same sixty runs check the static analyses' claims about each kernel
// (kernel_claims_test.go): every site's mechanism, and per machine size,
// what a certified plan or a shared build promises across the three schemes.
//
// Under the race detector the battery trims itself to one parallel
// configuration per kernel (scheme rotated by kernel so all three
// appear), which leaves nothing to compare across schemes;
// race_on_test.go has the reasoning.
func TestSchedulerDigestEquivalence(t *testing.T) {
	if *update && raceDetectorEnabled {
		t.Fatal("-update needs the full battery: run it without -race")
	}
	g := openGolden(t, batteryPath)
	var lines []string
	procsList := []int{1, 4}
	for ki, name := range batteryKernels {
		claims := staticClaims(t, name)
		obs := map[int][]schemeObs{}
		for si, s := range schemes {
			for _, procs := range procsList {
				i := len(lines)
				lines = append(lines, "")
				if raceDetectorEnabled && (procs == 1 || si != ki%len(schemes)) {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/P%d", name, s.name, procs), func(t *testing.T) {
					cfg := bench.Config{Procs: procs, Scheme: s.kind, Scale: batteryScale}
					var o schemeObs
					lines[i], o = batteryLine(t, name, s.name, cfg, claims)
					obs[procs] = append(obs[procs], o)
					g.check(t, i, lines[i])
				})
			}
		}
		for _, procs := range procsList {
			if len(obs[procs]) < len(schemes) {
				t.Logf("%s P=%d: cross-scheme claims not checked, %d of %d schemes ran",
					name, procs, len(obs[procs]), len(schemes))
				continue
			}
			for _, msg := range crossSchemeFindings(name, procs, claims, obs[procs]) {
				t.Error(msg)
			}
		}
	}
	g.finish(t, lines)
}
