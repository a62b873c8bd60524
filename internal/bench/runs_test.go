package bench_test

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/trace"

	_ "repro/internal/bench/all"
)

// runKey is one configuration of the test binary's table of runs: the
// bench.Config fields that choose what runs, normalized as bench does.
type runKey struct {
	name         string
	scheme       coherence.Kind
	mode         rt.Mode
	procs, scale int
	baseline     bool
}

// run is what one execution leaves for the tests that read it; it keeps no
// runtime and no recorder.
type run struct {
	res    bench.Result
	rec    record.RunRecord
	access trace.Digest // trace.AccessDigest of the timed region
	heap   uint64       // Runtime.HeapFingerprint after the run
	sites  []rt.SiteStats
	faults []string // Runtime.SiteFaults
	census struct{ syncs, picks, switches, ops int64 }
	leaked int    // goroutines the run left alive, floored at 0: an earlier test's may end during it
	fault  string // why the run has no outcome: its recovered panic
}

var (
	runs     = map[runKey]*run{}
	executed int // calls of execute, pinned by runsPerPackage
)

// execute runs name under cfg through bench.RunRecorded with a recorder
// and a registry of its own, calling hook (when non-nil) on the fresh
// runtime. A panic becomes the run's fault: it fails the tests that read
// the run, not the test binary.
func execute(name string, cfg bench.Config, hook func(*rt.Runtime)) *run {
	executed++
	out := &run{}
	out.fault = recovered(func() {
		info, ok := bench.Get(name)
		if !ok {
			panic("benchmark not registered")
		}
		before := runtime.NumGoroutine()
		rec := trace.New(0)
		var rtm *rt.Runtime
		cfg.Trace = rec
		cfg.RuntimeHook = func(r *rt.Runtime) {
			if rtm = r; hook != nil {
				hook(r)
			}
		}
		out.res, out.rec = bench.RunRecorded(info, cfg)
		if rtm == nil {
			panic("RuntimeHook never ran")
		}
		out.leaked = max(0, runtime.NumGoroutine()-before)
		out.access, out.heap = rec.AccessDigest(), rtm.HeapFingerprint()
		out.sites, out.faults = rtm.SiteStats(), rtm.SiteFaults()
		out.census.syncs, out.census.picks, out.census.switches, out.census.ops = rtm.Sched.Census()
	})
	return out
}

// recovered calls f and returns what it panicked with, as text, or "" when
// it returned. A kernel that runs outside execute runs inside recovered on
// each goroutine that is not the test's own, so that its panic fails the
// test instead of ending the test binary; on the test's goroutine a
// deferred failOnPanic does the same.
func recovered(f func()) (fault string) {
	defer func() {
		if p := recover(); p != nil {
			fault = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// failOnPanic, deferred on a test's goroutine, fails the test with the
// panic text.
func failOnPanic(t *testing.T) {
	if p := recover(); p != nil {
		t.Fatalf("panic: %v", p)
	}
}

// shared returns the run of name under cfg, executing it the first time any
// test asks, so -run, -short and the race build's trimmed battery execute
// only what their tests read. A run that panicked or did not verify fails
// t. The tests that read the table are not parallel.
func shared(t *testing.T, name string, cfg bench.Config) *run {
	t.Helper()
	k := runKey{name, cfg.Scheme, cfg.Mode, cfg.Procs, cfg.Scale, cfg.Baseline}
	if k.scale <= 0 {
		k.scale = bench.DefaultScale
	}
	if k.baseline || k.procs <= 0 {
		k.procs = 1
	}
	r, ok := runs[k]
	if !ok {
		r = execute(name, cfg, nil)
		runs[k] = r
	}
	where := fmt.Sprintf("%s %s %s P=%d scale=1/%d baseline=%t", name, k.scheme, k.mode, k.procs, k.scale, k.baseline)
	switch {
	case r.fault != "":
		t.Fatalf("%s: %s", where, r.fault)
	case !r.res.Verified():
		t.Fatalf("%s: check %#x != %#x", where, r.res.Check, r.res.WantCheck)
	}
	return r
}

// TestRuntimeHookSetsCost covers the way to run under another cost model:
// a RuntimeHook that replaces r.M.Cost. The default model reproduces the
// shared run's record; a slower network leg of every migration raises a
// migrate-only run's makespan.
func TestRuntimeHookSetsCost(t *testing.T) {
	cfg := bench.Config{Procs: 4, Scale: batteryScale, Mode: rt.MigrateOnly}
	base := shared(t, "perimeter", cfg)
	same := execute("perimeter", cfg, func(r *rt.Runtime) { r.M.Cost = machine.DefaultCost() })
	slow := execute("perimeter", cfg, func(r *rt.Runtime) { r.M.Cost.MigrateNet *= 2 })
	if !reflect.DeepEqual(same.rec, base.rec) {
		t.Errorf("perimeter under the default cost set by a hook moved (%s):%s", same.fault, movedJSON(t, same.rec, base.rec))
	}
	if slow.res.Cycles <= base.res.Cycles {
		t.Errorf("perimeter with MigrateNet doubled ran %d cycles (%s), no more than the default's %d", slow.res.Cycles, slow.fault, base.res.Cycles)
	}
}

// runsPerPackage is how many runs execute makes in a full `go test` of this
// package: the battery's 90, the 15 pinned runs, the tables' 22 (of which
// the shape table reads the ten baselines), the shape table's 66 others
// (P=2, 8, 16 and 32 and migrate-only at 32 for ten kernels, global and
// bilateral at 32 for six, and four baselines at 1/16), the
// differential's 20 (global and bilateral at P=2 and 8 for five kernels),
// the replay's 6 second runs and TestRuntimeHookSetsCost's 2. Reading a
// configuration through shared again adds nothing; a new configuration
// raises the pin.
const runsPerPackage = 221

// TestMain checks runsPerPackage after a passing run of every test.
func TestMain(m *testing.M) {
	code := m.Run()
	whole := flag.Lookup("test.count").Value.String() == "1" && !testing.Short() && !raceDetectorEnabled
	for _, f := range []string{"test.run", "test.skip", "test.list"} {
		whole = whole && flag.Lookup(f).Value.String() == ""
	}
	if code == 0 && whole && executed != runsPerPackage {
		fmt.Printf("FAIL: the tests executed %d runs, runsPerPackage pins %d\n", executed, runsPerPackage)
		code = 1
	}
	os.Exit(code)
}
