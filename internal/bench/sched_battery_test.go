package bench_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/rt"
)

// batteryScale keeps the 90-run battery fast; TestPinsReproduce re-runs
// five kernels at the pins' scale 16 separately.
const batteryScale = 64

const batteryPath = "testdata/sched_battery.golden"

// propsPath holds the program properties of the same ninety runs: the
// checksum and the machine.Stats counts that say what the program did —
// pointer tests, migrations and returns, futures and touches, cacheable
// and remote references — rather than what the machine charged for it.
// A change of cost model, line size or coherence protocol may move
// cycles, misses, fetches, pages and digests, and must not move these.
// Heap fingerprints are left out: voronoi allocates at its thread's
// processor inside concurrent spawns, so at P>1 its stored pointers
// follow the interleaving, which a change of cache geometry moves. The
// file is written by hand: -update rewrites batteryPath and still checks
// this one.
const propsPath = "testdata/program_properties.golden"

// batteryKernels is the ten paper kernels, spelled out rather than taken
// from bench.Names(): other tests register throwaway benchmarks that have
// no runtime behind them.
var batteryKernels = []string{
	"treeadd", "power", "tsp", "mst", "bisort",
	"voronoi", "em3d", "barneshut", "perimeter", "health",
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
// Thirty more lines, cache-only × three schemes at P=4, were recorded by
// the scheduler that ran every operation on its thread's own stack, before
// operations could run as data (sched_loop.go): they pin the mode where
// most operations do.
//
// The same ninety runs are checked against their program properties
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
	lines := make([]string, len(batteryKernels)*len(schemes)*3)
	if len(props) != len(lines) {
		t.Errorf("%s has %d lines, the battery runs %d", propsPath, len(props), len(lines))
	}
	// line reads configuration i's shared run and renders everything it
	// exposes that a change of execution order could move: the trace digest
	// (event order, content and per-kind counts), the heap fingerprint, the
	// makespan, the checksum and every machine statistic. It checks that
	// line, the run's program properties and each executed site's mechanism
	// against the kernel's claims.
	line := func(t *testing.T, i int, name, label string, cfg bench.Config, claims kernelClaims) *run {
		r := shared(t, name, cfg)
		res, st := r.res, r.res.Stats
		// One quantity, two counters (the caches' and the machine's): they
		// must stay equal.
		if res.Pages != st.PagesCached {
			t.Errorf("%s: Result.Pages %d != Stats.PagesCached %d", name, res.Pages, st.PagesCached)
		}
		for _, msg := range mechFindings(claims.rep, r.sites) {
			t.Error(msg)
		}
		lines[i] = fmt.Sprintf("%s %s P=%d scale=1/%d %s heap=%016x cycles=%d check=%#x stats=%+v",
			name, label, cfg.Procs, cfg.Scale, r.rec.TraceDigest, r.heap, res.Cycles, res.Check, st)
		g.check(t, i, lines[i])
		got := fmt.Sprintf("%s %s P=%d check=%#x PtrTests=%d Migrations=%d Returns=%d Futures=%d Touches=%d CacheableReads=%d CacheableWrites=%d RemoteReads=%d RemoteWrites=%d",
			name, label, cfg.Procs, res.Check, st.PtrTests, st.Migrations, st.Returns, st.Futures, st.Touches,
			st.CacheableReads, st.CacheableWrites, st.RemoteReads, st.RemoteWrites)
		want := ""
		if i < len(props) {
			want = props[i]
		}
		if got != want {
			t.Errorf("%s line %d moved in %v; a re-pin may move cycles and misses, never a program property:\n  got:  %s\n  want: %s",
				propsPath, i+1, movedFields(got, want), got, want)
		}
		return r
	}
	procsList := []int{1, 4}
	for ki, name := range batteryKernels {
		claims := staticClaims(t, name)
		obs := map[int][]schemeObs{}
		for si, s := range schemes {
			for pi, procs := range procsList {
				i := (ki*len(schemes)+si)*len(procsList) + pi
				if raceDetectorEnabled && (procs == 1 || si != ki%len(schemes)) {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/P%d", name, s, procs), func(t *testing.T) {
					cfg := bench.Config{Procs: procs, Scheme: s, Scale: batteryScale}
					r := line(t, i, name, s.String(), cfg, claims)
					obs[procs] = append(obs[procs], observe(name, s.String(), cfg, r, claims.sharedBuild))
				})
			}
			// Cache-only at P=4, the last thirty lines: every remote
			// reference goes through the software cache, so nearly every
			// operation is a load or store that stays put.
			i := len(batteryKernels)*len(schemes)*len(procsList) + ki*len(schemes) + si
			if raceDetectorEnabled && si != (ki+1)%len(schemes) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s/cache-only/P4", name, s), func(t *testing.T) {
				cfg := bench.Config{Procs: 4, Scheme: s, Scale: batteryScale, Mode: rt.CacheOnly}
				line(t, i, name, s.String()+" cache-only", cfg, claims)
			})
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
