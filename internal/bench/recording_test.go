package bench_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/rt"

	_ "repro/internal/bench/all"
)

// recScale keeps the recording tests on tiny problems; determinism does
// not depend on size.
const recScale = 1024

// TestCollectRecordsIsDeterministic pins the property the perf gate rests
// on: two collections of the same suite from the same binary marshal to
// byte-identical files, so zero tolerance is a usable gate.
func TestCollectRecordsIsDeterministic(t *testing.T) {
	a, err := bench.CollectRecords("treeadd", bench.PinnedSuite(2, recScale))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.CollectRecords("treeadd", bench.PinnedSuite(2, recScale))
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("two collections of the same suite produced different bytes")
	}

	if len(a.Records) != 5 {
		t.Fatalf("suite has %d records, want 5", len(a.Records))
	}
	for _, key := range []string{
		"baseline",
		record.HeuristicKey(2, "local"),
		record.HeuristicKey(2, "global"),
		record.HeuristicKey(2, "bilateral"),
		record.MigrateOnlyKey(2, "local"),
	} {
		r, ok := a.Lookup(key)
		if !ok {
			t.Fatalf("suite missing configuration %q", key)
		}
		if !r.Verified {
			t.Fatalf("%s not verified", key)
		}
		if r.TraceDigest == "" || len(r.Metrics) == 0 {
			t.Fatalf("%s record missing trace digest or metrics dump", key)
		}
	}

	// A byte-identical rerun passes the gate at zero tolerance.
	regs, err := record.Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("identical reruns must pass the zero-tolerance gate, got %v", regs)
	}
}

// TestGateCatchesDeliberatelySlowedRun slows the simulation for real — a
// costlier pointer test via the runtime hook, the kind of accidental
// overhead a code change could introduce — and checks the zero-tolerance
// gate fails it while the run still verifies.
func TestGateCatchesDeliberatelySlowedRun(t *testing.T) {
	base, err := bench.CollectRecords("treeadd", bench.PinnedSuite(2, recScale))
	if err != nil {
		t.Fatal(err)
	}
	info, _ := bench.Get("treeadd")
	res, slowed := bench.RunRecorded(info, bench.Config{
		Procs: 2, Scale: recScale,
		RuntimeHook: func(r *rt.Runtime) { r.M.Cost.PtrTest += 10 },
	})
	if !res.Verified() {
		t.Fatal("the slowed run must still compute the right answer")
	}
	want, _ := base.Lookup(slowed.Key())
	if slowed.Cycles <= want.Cycles {
		t.Fatalf("slowed run took %d cycles, baseline %d — hook had no effect", slowed.Cycles, want.Cycles)
	}

	cand := base
	cand.Records = append([]record.RunRecord(nil), base.Records...)
	for i := range cand.Records {
		if cand.Records[i].Key() == slowed.Key() {
			cand.Records[i] = slowed
		}
	}
	regs, err := record.Compare(base, cand)
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, r := range regs {
		if r.Metric == "cycles" && r.Key == slowed.Key() {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("gate missed the slowed run: %v", regs)
	}
}

// TestRecordedEntryPointsAgree pins the one-constructor contract: the
// whole-run entry and the phased entry (fresh build, no state to reuse)
// produce equal records, for a kernel-timed benchmark that really splits
// at its raw build and for a whole-program one that cannot. And
// recording is free in simulated time: the record's cycles are those of a
// plain info.Run with no registry or recorder attached.
func TestRecordedEntryPointsAgree(t *testing.T) {
	for _, name := range []string{"treeadd", "power"} {
		info, ok := bench.Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		cfg := bench.Config{Procs: 2, Scale: recScale, Scheme: coherence.GlobalKnowledge}
		_, whole := bench.RunRecorded(info, cfg)
		_, phased, _, reused, err := bench.RunPhasedRecorded(info, cfg, nil)
		if err != nil {
			t.Fatalf("%s: phased run: %v", name, err)
		}
		if reused {
			t.Fatalf("%s: phased run reports a reused build with no build state", name)
		}
		if !whole.Verified || whole.TraceDigest == "" {
			t.Fatalf("%s: whole record unverified or without digest: %+v", name, whole)
		}
		if !reflect.DeepEqual(whole, phased) {
			t.Errorf("%s: RunRecorded and RunPhasedRecorded disagree:\nwhole:  %+v\nphased: %+v", name, whole, phased)
		}
		if plain := info.Run(cfg); plain.Cycles != whole.Cycles {
			t.Errorf("%s: recording a run changed its makespan: %d != %d", name, whole.Cycles, plain.Cycles)
		}
	}
}
