package bench_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/rt"
	"repro/internal/trace"

	_ "repro/internal/bench/all"
)

// batteryScale keeps the 60-run battery fast; TestPinsReproduce re-runs
// five kernels at the pins' scale 16 separately.
const batteryScale = 64

const batteryPath = "testdata/sched_battery.golden"

// propsPath holds the program properties of the same sixty runs: the
// checksum and the machine.Stats counts that say what the program did —
// pointer tests, migrations and returns, futures and touches, cacheable
// and remote references — rather than what the machine charged for it.
// A change of cost model, line size or coherence protocol may move
// cycles, misses, fetches, pages and digests, and must not move these.
// Heap fingerprints are left out: mem.NewHeap reserves page 0, so every
// stored pointer, and with it the fingerprint, shifts with
// gaddr.PageBytes. The file is written by hand: -update rewrites
// batteryPath and still checks this one.
const propsPath = "testdata/program_properties.golden"

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
// executed site's mechanism against the kernel's claims and returns the
// run's program properties (propsPath) and what the cross-scheme claims
// compare.
func batteryLine(t *testing.T, name, scheme string, cfg bench.Config, claims kernelClaims) (string, string, schemeObs) {
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
	// must stay equal.
	if res.Pages != res.Stats.PagesCached {
		t.Errorf("%s: Result.Pages %d != Stats.PagesCached %d", name, res.Pages, res.Stats.PagesCached)
	}
	for _, msg := range mechFindings(claims.rep, rtm.SiteStats()) {
		t.Error(msg)
	}
	o := schemeObs{scheme: scheme, check: res.Check, kernelAccess: rec.AccessDigest()}
	if claims.sharedBuild {
		o.buildHeap = buildFingerprint(info, cfg)
	}
	st := res.Stats
	props := fmt.Sprintf("%s %s P=%d check=%#x PtrTests=%d Migrations=%d Returns=%d Futures=%d Touches=%d CacheableReads=%d CacheableWrites=%d RemoteReads=%d RemoteWrites=%d",
		name, scheme, cfg.Procs, res.Check, st.PtrTests, st.Migrations, st.Returns, st.Futures, st.Touches,
		st.CacheableReads, st.CacheableWrites, st.RemoteReads, st.RemoteWrites)
	return fmt.Sprintf("%s %s P=%d scale=1/%d %s heap=%016x cycles=%d check=%#x stats=%+v",
		name, scheme, cfg.Procs, cfg.Scale, rec.Digest(),
		rtm.HeapFingerprint(), res.Cycles, res.Check, res.Stats), props, o
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
// The same sixty runs are checked against their program properties
// (propsPath), which no flag regenerates, and against the static analyses'
// claims about each kernel (kernel_claims_test.go): every site's
// mechanism, and per machine size, what a certified plan or a shared
// build promises across the three schemes.
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
	b, err := os.ReadFile(propsPath)
	if err != nil {
		t.Fatal(err)
	}
	props := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(props) != len(batteryKernels)*len(schemes)*2 {
		t.Errorf("%s has %d lines, the battery runs %d", propsPath, len(props), len(batteryKernels)*len(schemes)*2)
	}
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
					var got string
					lines[i], got, o = batteryLine(t, name, s.name, cfg, claims)
					obs[procs] = append(obs[procs], o)
					g.check(t, i, lines[i])
					want := ""
					if i < len(props) {
						want = props[i]
					}
					if got != want {
						t.Errorf("%s line %d moved in %v; a re-pin may move cycles and misses, never a program property:\n  got:  %s\n  want: %s",
							propsPath, i+1, movedFields(got, want), got, want)
					}
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
