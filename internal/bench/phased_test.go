package bench_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/gaddr"
	"repro/internal/mem"
	"repro/internal/rt"
	"repro/internal/trace"

	_ "repro/internal/bench/all"
)

// The phased contract: skipping the build by restoring its heap image
// must be observationally indistinguishable from re-running it — same
// result, same kernel trace digest, same final heap — whatever coherence
// scheme or mechanism mode runs the kernel. RunPhased itself re-checks the
// restored image's fingerprint against the build's.
func TestRunPhasedReuseMatchesColdRun(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"treeadd", "em3d", "bisort", "mst", "tsp", "voronoi", "perimeter"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			info, ok := bench.Get(name)
			if !ok {
				t.Fatalf("benchmark %s not registered", name)
			}
			if info.Phased == nil {
				t.Fatalf("kernel-timed benchmark %s has no Phased split", name)
			}
			var bs *bench.BuildState
			for i, k := range []coherence.Kind{
				coherence.LocalKnowledge, coherence.GlobalKnowledge, coherence.Bilateral,
			} {
				cold := runOnce(t, info, k, rt.Heuristic, nil)
				var warm obs
				warm, bs = runOnce2(t, info, k, rt.Heuristic, bs)
				if i > 0 && !warm.reused {
					t.Fatalf("%s under %s did not reuse the build state", name, k)
				}
				if cold.res != warm.res {
					t.Fatalf("%s under %s: cold %+v != warm %+v", name, k, cold.res, warm.res)
				}
				if cold.kernelDigest != warm.kernelDigest {
					t.Fatalf("%s under %s: kernel trace digest changed on reuse:\n cold %s\n warm %s",
						name, k, cold.kernelDigest, warm.kernelDigest)
				}
				if cold.heapFP != warm.heapFP {
					t.Fatalf("%s under %s: final heap fingerprint %#x != %#x",
						name, k, warm.heapFP, cold.heapFP)
				}
			}
			// The migrate-only mode must reuse the same build state too.
			warm, _ := runOnce2(t, info, coherence.LocalKnowledge, rt.MigrateOnly, bs)
			if !warm.reused || !warm.res.Verified() {
				t.Fatalf("%s migrate-only reuse: reused=%t verified=%t",
					name, warm.reused, warm.res.Verified())
			}
		})
	}
}

type obs struct {
	res          bench.Result
	kernelDigest string
	heapFP       uint64 // of the heap the kernel leaves
	reused       bool
}

func runOnce(t *testing.T, info bench.Info, k coherence.Kind, mode rt.Mode, bs *bench.BuildState) obs {
	o, _ := runOnce2(t, info, k, mode, bs)
	return o
}

func runOnce2(t *testing.T, info bench.Info, k coherence.Kind, mode rt.Mode, bs *bench.BuildState) (obs, *bench.BuildState) {
	t.Helper()
	rec := trace.New(0)
	var rtm *rt.Runtime
	cfg := bench.Config{
		Procs:       2,
		Scheme:      k,
		Mode:        mode,
		Scale:       4 * bench.DefaultScale,
		Trace:       rec,
		RuntimeHook: func(r *rt.Runtime) { rtm = r },
	}
	res, out, reused, err := bench.RunPhased(info, cfg, bs)
	if err != nil {
		t.Fatalf("RunPhased(%s, %s): %v", info.Name, k, err)
	}
	if !res.Verified() {
		t.Fatalf("%s under %s failed verification", info.Name, k)
	}
	o := obs{res: res, kernelDigest: rec.Digest().String(), reused: reused}
	if rtm != nil {
		o.heapFP = rtm.HeapFingerprint()
	}
	return o, out
}

// Whole-program benchmarks have no phase split; RunPhased must fall
// back to the plain Run without inventing a build state.
func TestRunPhasedWholeProgramFallback(t *testing.T) {
	t.Parallel()
	info, ok := bench.Get("health")
	if !ok {
		t.Skip("health not registered")
	}
	if info.Phased != nil {
		t.Fatalf("whole-program benchmark unexpectedly has a Phased split")
	}
	res, bs, reused, err := bench.RunPhased(info, bench.Config{Procs: 2, Scale: 8 * bench.DefaultScale}, nil)
	if err != nil {
		t.Fatalf("RunPhased: %v", err)
	}
	if bs != nil || reused {
		t.Fatalf("fallback produced a build state (bs=%v reused=%t)", bs, reused)
	}
	if !res.Verified() {
		t.Fatalf("health failed verification")
	}
}

// A build must be raw. One that makes a simulated access fails on both
// paths with the same message naming the benchmark, before the kernel
// runs: RunPhased returns it and the derived Run panics with it.
func TestSimulatedBuildFails(t *testing.T) {
	const name = "bench-test-simulated-build"
	site := &rt.Site{Name: "simbuild.load", Mech: rt.Cache}
	bench.Register(bench.Info{Name: name, Phased: &bench.Phased{
		Build: func(_ bench.Config, r *rt.Runtime) any {
			g := r.RawAlloc(r.P()-1, 8)
			r.Run(0, func(th *rt.Thread) { th.LoadInt(site, g, 0) })
			return nil
		},
		Kernel: func(bench.Config, *rt.Runtime, any) bench.Result {
			t.Error("the kernel ran after a simulated build")
			return bench.Result{}
		},
	}})
	info, _ := bench.Get(name)
	cfg := bench.Config{Procs: 2}
	_, bs, _, err := bench.RunPhased(info, cfg, nil)
	if err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("RunPhased error = %v, want one naming %s", err, name)
	}
	if bs != nil {
		t.Fatal("a failed build returned a build state")
	}
	defer func() {
		if p := recover(); fmt.Sprint(p) != err.Error() {
			t.Fatalf("Run panicked with %v, want %q", p, err)
		}
	}()
	info.Run(cfg)
}

// A build that outgrows its heap section is an error, not a panic: the
// build recovers the exhaustion's *mem.ExhaustedError and returns it, and
// RunPhased and RunPhasedRecorded hand it on without running the kernel
// (the server answers 500). A build's other panics are re-raised.
func TestBuildExhaustionIsAnError(t *testing.T) {
	treeadd, _ := bench.Get("treeadd")
	cfg := bench.Config{Procs: 2, Scale: 64, RuntimeHook: func(r *rt.Runtime) {
		for i, p := range r.M.Procs { // sections of two pages: treeadd's tree does not fit
			p.Heap = mem.NewHeap(i, 2*gaddr.PageBytes)
		}
	}}
	var ex *mem.ExhaustedError
	if _, bs, _, err := bench.RunPhased(treeadd, cfg, nil); !errors.As(err, &ex) || bs != nil {
		t.Errorf("RunPhased: err = %v, build state %v; want an *mem.ExhaustedError and none", err, bs)
	}
	if _, _, bs, _, err := bench.RunPhasedRecorded(treeadd, cfg, nil); !errors.As(err, &ex) || bs != nil {
		t.Errorf("RunPhasedRecorded: err = %v, build state %v; want an *mem.ExhaustedError and none", err, bs)
	}

	defer func() {
		if p := recover(); p != "not exhaustion" {
			t.Fatalf("a build's other panic came back as %v", p)
		}
	}()
	bench.RunPhased(bench.Info{Name: "bench-test-panicking-build", Phased: &bench.Phased{
		Build: func(bench.Config, *rt.Runtime) any { panic("not exhaustion") },
		Kernel: func(bench.Config, *rt.Runtime, any) bench.Result {
			t.Error("the kernel ran after a failed build")
			return bench.Result{}
		},
	}}, bench.Config{Procs: 2}, nil)
}

// A build state must not serve a different benchmark, machine size or
// scale.
func TestBuildStateReusableGuards(t *testing.T) {
	t.Parallel()
	treeadd, _ := bench.Get("treeadd")
	em3d, _ := bench.Get("em3d")
	bs := &bench.BuildState{Benchmark: "treeadd", Procs: 2, Scale: 64}
	if !bs.Reusable(treeadd, bench.Config{Procs: 2, Scale: 64}) {
		t.Fatalf("matching config rejected")
	}
	for _, cfg := range []bench.Config{
		{Procs: 4, Scale: 64},
		{Procs: 2, Scale: 32},
		{Procs: 2, Scale: 64, Baseline: true},
	} {
		if bs.Reusable(treeadd, cfg) {
			t.Fatalf("mismatched config %+v accepted", cfg)
		}
	}
	if bs.Reusable(em3d, bench.Config{Procs: 2, Scale: 64}) {
		t.Fatalf("wrong benchmark accepted")
	}
	var nilBS *bench.BuildState
	if nilBS.Reusable(treeadd, bench.Config{Procs: 2, Scale: 64}) {
		t.Fatalf("nil build state accepted")
	}
}

// TestBuildKey pins the phase cache's one reuse decision: every scheme and
// mode of a kernel-timed benchmark shares the key at one machine size and
// scale, and there is no key for a baseline run, a whole-program benchmark
// or an unknown name.
func TestBuildKey(t *testing.T) {
	t.Parallel()
	key := func(name string, cfg bench.Config) (string, bool) {
		info, _ := bench.Get(name)
		return info.BuildKey(cfg)
	}
	want, ok := key("treeadd", bench.Config{Procs: 2, Scale: 16})
	if !ok || want != "treeadd|P=2|scale=16" {
		t.Fatalf("treeadd key = %q, %t", want, ok)
	}
	for _, k := range []coherence.Kind{coherence.LocalKnowledge, coherence.GlobalKnowledge, coherence.Bilateral} {
		for _, mode := range []rt.Mode{rt.Heuristic, rt.MigrateOnly, rt.CacheOnly} {
			if got, ok := key("treeadd", bench.Config{Procs: 2, Scale: 16, Scheme: k, Mode: mode}); !ok || got != want {
				t.Errorf("treeadd under %s/%s: key %q, %t; want %q", k, mode, got, ok, want)
			}
		}
	}
	if got, _ := key("treeadd", bench.Config{Procs: 2}); got != want {
		t.Errorf("default scale: key %q, want %q", got, want)
	}
	for _, cfg := range []bench.Config{{Procs: 4, Scale: 16}, {Procs: 2, Scale: 32}} {
		if got, ok := key("treeadd", cfg); !ok || got == want {
			t.Errorf("%+v: key %q, %t; want a key other than %q", cfg, got, ok, want)
		}
	}
	for _, c := range []struct {
		name string
		cfg  bench.Config
	}{
		{"treeadd", bench.Config{Procs: 2, Scale: 16, Baseline: true}},
		{"power", bench.Config{Procs: 2, Scale: 16}},
		{"health", bench.Config{Procs: 2, Scale: 16}},
		{"barneshut", bench.Config{Procs: 2, Scale: 16}},
		{"no-such-benchmark", bench.Config{Procs: 2, Scale: 16}},
	} {
		if got, ok := key(c.name, c.cfg); ok {
			t.Errorf("%s %+v: key %q, want none", c.name, c.cfg, got)
		}
	}
}
