package bench_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/trace"
)

// TestConcurrentRunsIsolated guards the per-job-isolation assumption
// oldend's worker pool relies on: two different benchmarks executing
// simultaneously — each on its own machine, runtime and trace recorder —
// must produce exactly the trace digests and statistics of their
// single-run goldens. Any cross-talk through package-level state (shared
// RNGs, interning tables, counters) shows up as a digest or stats
// divergence here, and as a data race under `go test -race`.
func TestConcurrentRunsIsolated(t *testing.T) {
	type outcome struct {
		digest trace.Digest
		stats  machine.Stats
		cycles int64
		ok     bool
		fault  string // the run's panic
	}
	runOnce := func(name string, kind coherence.Kind) (o outcome) {
		info, _ := bench.Get(name)
		o.fault = recovered(func() {
			rec := trace.New(0)
			res := info.Run(bench.Config{Procs: 4, Scheme: kind, Trace: rec})
			o = outcome{digest: rec.Digest(), stats: res.Stats, cycles: res.Cycles, ok: res.Verified()}
		})
		return o
	}

	configs := []struct {
		name string
		kind coherence.Kind
	}{
		{"treeadd", coherence.LocalKnowledge},
		{"em3d", coherence.GlobalKnowledge},
	}

	// Sequential goldens first, in isolation.
	golden := make([]outcome, len(configs))
	for i, c := range configs {
		golden[i] = runOnce(c.name, c.kind)
		if !golden[i].ok {
			t.Fatalf("%s golden run failed verification %s", c.name, golden[i].fault)
		}
	}

	// Now the same configurations concurrently, several times over, with
	// both benchmarks in flight at once in every round.
	const rounds = 3
	for round := 0; round < rounds; round++ {
		got := make([]outcome, len(configs))
		var wg sync.WaitGroup
		for i, c := range configs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = runOnce(c.name, c.kind)
			}()
		}
		wg.Wait()
		for i, c := range configs {
			if !got[i].ok {
				t.Fatalf("round %d: %s failed verification under concurrency %s", round, c.name, got[i].fault)
			}
			if got[i].digest != golden[i].digest {
				t.Errorf("round %d: %s trace digest diverged under concurrency:\n got %s\nwant %s",
					round, c.name, got[i].digest, golden[i].digest)
			}
			if got[i].stats != golden[i].stats {
				t.Errorf("round %d: %s stats diverged under concurrency:\n got %+v\nwant %+v",
					round, c.name, got[i].stats, golden[i].stats)
			}
			if got[i].cycles != golden[i].cycles {
				t.Errorf("round %d: %s cycles %d != golden %d",
					round, c.name, got[i].cycles, golden[i].cycles)
			}
		}
	}
}

// finishedRun is everything a completed recorded run leaves behind: its
// record, and the registry, recorder and runtime it ran on.
type finishedRun struct {
	rec record.RunRecord
	reg *metrics.Registry
	tr  *trace.Recorder
	rtm *rt.Runtime
}

// runFinished runs info under cfg; a panic fails t.
func runFinished(t *testing.T, info bench.Info, cfg bench.Config) finishedRun {
	f := finishedRun{reg: metrics.NewRegistry(), tr: trace.New(0)}
	cfg.Metrics, cfg.Trace = f.reg, f.tr
	cfg.RuntimeHook = func(r *rt.Runtime) { f.rtm = r }
	defer failOnPanic(t)
	_, f.rec = bench.RunRecorded(info, cfg)
	return f
}

// view reads a finished run through every door it has: the registry (whose
// counters read the run's plain integers), the recorder, and the runtime's
// statistics, clocks, page counts, per-site counters and heaps.
func (f finishedRun) view() string {
	return fmt.Sprint(f.reg.Snapshot().Flat(), f.tr.Digest(), f.tr.Len(),
		f.rtm.M.Stats, f.rtm.M.Makespan(), f.rtm.M.TotalBusy(),
		f.rtm.PagesCachedTotal(), f.rtm.SiteStats(), f.rtm.HeapFingerprint())
}

// TestConcurrentRecordedRunsIsolated repeats the isolation check through
// RunRecorded — the exact entry point oldend's executor uses — so the
// record (metrics dump included) is also a pure function of the
// configuration when other runs share the process.
//
// It is also the proof of the ownership rule that let the simulator drop
// its locks (DESIGN.md §13): a run's state belongs to the goroutine that
// runs it and, once Run has returned, to whoever holds the result. While
// the two concurrent runs are in flight a third goroutine keeps reading
// the two finished golden runs through every accessor; if anything per-run
// were shared between runs — a package-level site, a common registry —
// those unsynchronised reads would race with the in-flight runs' plain
// writes under `go test -race`, and the views would change.
func TestConcurrentRecordedRunsIsolated(t *testing.T) {
	infoT, _ := bench.Get("treeadd")
	infoE, _ := bench.Get("em3d")
	cfgT := bench.Config{Procs: 2, Scheme: coherence.LocalKnowledge}
	cfgE := bench.Config{Procs: 4, Scheme: coherence.Bilateral}

	finished := []finishedRun{runFinished(t, infoT, cfgT), runFinished(t, infoE, cfgE)}
	goldT, goldE := finished[0].rec, finished[1].rec
	views := []string{finished[0].view(), finished[1].view()}

	var wg sync.WaitGroup
	var gotT, gotE = goldT, goldE
	faults := make([]string, 2)
	wg.Add(2)
	go func() { defer wg.Done(); faults[0] = recovered(func() { _, gotT = bench.RunRecorded(infoT, cfgT) }) }()
	go func() { defer wg.Done(); faults[1] = recovered(func() { _, gotE = bench.RunRecorded(infoE, cfgE) }) }()
	inFlight := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for reads := 0; ; reads++ {
			for i, f := range finished {
				if v := f.view(); v != views[i] {
					t.Errorf("finished run %d changed while other runs were in flight:\n got %s\nwant %s", i, v, views[i])
					return
				}
			}
			select {
			case <-inFlight:
				if reads == 0 {
					t.Error("the reader never overlapped the in-flight runs")
				}
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(inFlight)
	<-readerDone
	for i, f := range faults {
		if f != "" {
			t.Fatalf("%s under concurrency: %s", finished[i].rec.Benchmark, f)
		}
	}

	if gotT.TraceDigest != goldT.TraceDigest || gotT.Cycles != goldT.Cycles {
		t.Errorf("treeadd record diverged under concurrency: %s / %d vs %s / %d",
			gotT.TraceDigest, gotT.Cycles, goldT.TraceDigest, goldT.Cycles)
	}
	if gotE.TraceDigest != goldE.TraceDigest || gotE.Cycles != goldE.Cycles {
		t.Errorf("em3d record diverged under concurrency: %s / %d vs %s / %d",
			gotE.TraceDigest, gotE.Cycles, goldE.TraceDigest, goldE.Cycles)
	}
	for _, pair := range []struct {
		name      string
		got, want map[string]int64
	}{{"treeadd", gotT.Metrics, goldT.Metrics}, {"em3d", gotE.Metrics, goldE.Metrics}} {
		if len(pair.got) != len(pair.want) {
			t.Errorf("%s metrics dump changed size under concurrency: %d != %d",
				pair.name, len(pair.got), len(pair.want))
			continue
		}
		for k, v := range pair.want {
			if pair.got[k] != v {
				t.Errorf("%s metric %s = %d under concurrency, want %d", pair.name, k, pair.got[k], v)
			}
		}
	}
}
