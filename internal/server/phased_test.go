package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rt"

	_ "repro/internal/bench/all"
)

// TestPhaseCacheAcrossSchemes is the tentpole's serving-layer claim in
// miniature: the same benchmark under different coherence schemes misses
// the all-or-nothing result cache but shares one build state, and every
// run still verifies against the sequential reference.
func TestPhaseCacheAcrossSchemes(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	schemes := []string{"local", "global", "bilateral"}
	wantPhase := []string{"miss", "hit", "hit"}
	for i, scheme := range schemes {
		body := fmt.Sprintf(`{"benchmark":"treeadd","procs":2,"scale":16,"scheme":%q}`, scheme)
		st, b, h := postRun(t, ts, body)
		if st != 200 {
			t.Fatalf("[%s] run = %d (%s)", scheme, st, b)
		}
		if got := h.Get("X-Oldend-Cache"); got != "miss" {
			t.Fatalf("[%s] result cache = %q, want miss (distinct configs)", scheme, got)
		}
		if got := h.Get("X-Oldend-Phase-Cache"); got != wantPhase[i] {
			t.Fatalf("[%s] phase cache = %q, want %q", scheme, got, wantPhase[i])
		}
		var rec record.RunRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatal(err)
		}
		if !rec.Verified {
			t.Fatalf("[%s] phase-cached run failed verification: %+v", scheme, rec)
		}
	}
	if got := counterValue(t, s.Metrics(), "oldend_phase_cache_hits_total"); got != 2 {
		t.Fatalf("phase hits = %d, want 2", got)
	}
	if got := counterValue(t, s.Metrics(), "oldend_phase_cache_misses_total"); got != 1 {
		t.Fatalf("phase misses = %d, want 1", got)
	}

	// MigrateOnly shares the same build state as the heuristic runs: the
	// key excludes mode as well as scheme.
	_, _, h := postRun(t, ts, `{"benchmark":"treeadd","procs":2,"scale":16,"mode":"migrate-only"}`)
	if got := h.Get("X-Oldend-Phase-Cache"); got != "hit" {
		t.Fatalf("migrate-only phase cache = %q, want hit", got)
	}

	// A different machine size is a different boundary: miss, not hit.
	_, _, h = postRun(t, ts, `{"benchmark":"treeadd","procs":4,"scale":16}`)
	if got := h.Get("X-Oldend-Phase-Cache"); got != "miss" {
		t.Fatalf("procs=4 phase cache = %q, want miss", got)
	}
}

// TestPhaseCacheNotApplied pins the refusals: baseline runs (different
// machine shape) and whole-program benchmarks never touch the phase
// cache, and a substituted Execute bypasses it entirely.
func TestPhaseCacheNotApplied(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, b, h := postRun(t, ts, `{"benchmark":"treeadd","baseline":true,"scale":16}`)
	if st != 200 {
		t.Fatalf("baseline run = %d (%s)", st, b)
	}
	if got := h.Get("X-Oldend-Phase-Cache"); got != "none" {
		t.Fatalf("baseline phase cache = %q, want none", got)
	}
	st, b, h = postRun(t, ts, `{"benchmark":"health","procs":2}`)
	if st != 200 {
		t.Fatalf("health run = %d (%s)", st, b)
	}
	if got := h.Get("X-Oldend-Phase-Cache"); got != "none" {
		t.Fatalf("whole-program phase cache = %q, want none", got)
	}
	if n := s.phases.len(); n != 0 {
		t.Fatalf("phase cache entries = %d, want 0 (no phase-cacheable run happened)", n)
	}
}

// TestPhaseCacheVerifyCrossScheme is the determinism cross-check through
// the phased path: a no_cache re-run that restores another scheme's build
// state must reproduce the memoized record and trace digest bit for bit.
func TestPhaseCacheVerifyCrossScheme(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"benchmark":"em3d","procs":2,"scale":16,"scheme":"global"}`
	st, memo, mh := postRun(t, ts, body)
	if st != 200 {
		t.Fatalf("seed run = %d (%s)", st, memo)
	}
	// Populate the phase cache from a different scheme, then re-run the
	// first configuration: its kernel executes on top of the restored
	// build state and must match its own memoized bytes and digest.
	if st, b, _ := postRun(t, ts, `{"benchmark":"em3d","procs":2,"scale":16,"scheme":"local"}`); st != 200 {
		t.Fatalf("warm run = %d (%s)", st, b)
	}
	st, b, h := postRun(t, ts, `{"benchmark":"em3d","procs":2,"scale":16,"scheme":"global","no_cache":true}`)
	if st != 200 {
		t.Fatalf("no_cache run = %d (%s)", st, b)
	}
	if got := h.Get("X-Oldend-Phase-Cache"); got != "hit" {
		t.Fatalf("no_cache run phase cache = %q, want hit", got)
	}
	if !bytes.Equal(b, memo) || h.Get("X-Oldend-Trace-Digest") != mh.Get("X-Oldend-Trace-Digest") {
		t.Fatalf("restored re-run differs from the memoized run (digest %q vs %q) — phased determinism violation",
			h.Get("X-Oldend-Trace-Digest"), mh.Get("X-Oldend-Trace-Digest"))
	}
}

// TestLRUConcurrentMixed hammers both cache instantiations — full run
// records and phase-prefix build states — with concurrent mixed lookups
// and insertions. The race detector owns the memory-safety claim; the
// single-threaded tail pins that eviction order stays strict-LRU after
// the storm.
func TestLRUConcurrentMixed(t *testing.T) {
	results := newLRU[*cacheEntry](8)
	phases := newLRU[*bench.BuildState](4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rk := fmt.Sprintf("run-%d", (g+i)%12)
				pk := fmt.Sprintf("phase-%d", (g*i)%6)
				if _, ok := lruGet(results, rk); !ok {
					results.put(rk, newEntry(nil, rk))
				}
				if _, ok := lruGet(phases, pk); !ok {
					phases.put(pk, &bench.BuildState{Benchmark: pk})
				}
				results.len()
				phases.keys()
			}
		}(g)
	}
	wg.Wait()
	if n := results.len(); n != 8 {
		t.Fatalf("result cache len = %d, want capacity 8", n)
	}
	if n := phases.len(); n != 4 {
		t.Fatalf("phase cache len = %d, want capacity 4", n)
	}

	// Deterministic tail: rebuild a known access pattern and assert the
	// exact eviction order, most recent first.
	c := newLRU[*bench.BuildState](3)
	for _, k := range []string{"a", "b", "c"} {
		c.put(k, &bench.BuildState{Benchmark: k})
	}
	lruGet(c, "a")                                // order: a c b
	c.put("d", &bench.BuildState{Benchmark: "d"}) // evicts b
	if _, ok := lruGet(c, "b"); ok {
		t.Fatal("b should have been evicted")
	}
	want := []string{"d", "a", "c"}
	got := c.keys()
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

// TestBatchEndpoint drives /batch over a mixed configuration set:
// duplicates collapse, result-cache hits serve memoized bytes, and the
// three-scheme sweep shares one build via the phase cache.
func TestBatchEndpoint(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed the result cache with the local-scheme run.
	if st, b, _ := postRun(t, ts, `{"benchmark":"treeadd","procs":2,"scale":16,"scheme":"local"}`); st != 200 {
		t.Fatalf("seed = %d (%s)", st, b)
	}

	body := `{"runs":[
		{"benchmark":"treeadd","procs":2,"scale":16,"scheme":"local"},
		{"benchmark":"treeadd","procs":2,"scale":16,"scheme":"global"},
		{"benchmark":"treeadd","procs":2,"scale":16,"scheme":"bilateral"},
		{"benchmark":"treeadd","procs":2,"scale":16,"scheme":"global"},
		{"benchmark":"no-such-bench"}
	]}`
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	var items []BatchItem
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("items = %d, want 5", len(items))
	}
	if items[0].Status != 200 || items[0].Cache != "hit" {
		t.Fatalf("seeded item: %+v", items[0])
	}
	for _, i := range []int{1, 2} {
		if items[i].Status != 200 || items[i].Cache != "miss" {
			t.Fatalf("swept item %d: %+v", i, items[i])
		}
		if items[i].PhaseCache != "hit" {
			t.Fatalf("swept item %d phase cache = %q, want hit (build seeded by the local run)",
				i, items[i].PhaseCache)
		}
		var rec record.RunRecord
		if err := json.Unmarshal(items[i].Record, &rec); err != nil || !rec.Verified {
			t.Fatalf("swept item %d record: %v %+v", i, err, rec)
		}
	}
	if items[3].Status != 200 || items[3].Cache != "dedup" {
		t.Fatalf("duplicate item: %+v", items[3])
	}
	if string(items[3].Record) != string(items[1].Record) {
		t.Fatal("duplicate item record diverged from its executed twin")
	}
	if items[4].Status != http.StatusBadRequest || items[4].Error == "" {
		t.Fatalf("invalid item: %+v", items[4])
	}
	if got := resp.Header.Get("X-Oldend-Batch"); got != "runs=5 cache-hits=2 phase-hits=2" {
		t.Fatalf("batch header = %q", got)
	}
}

// TestBatchColdSweepSharesBuild is the batch-level dedup claim with a
// cold server: a three-scheme sweep must build exactly once (the group
// head) and serve the rest as phase hits — the warm-then-fan ordering.
func TestBatchColdSweepSharesBuild(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"runs":[
		{"benchmark":"mst","procs":2,"scale":16,"scheme":"local"},
		{"benchmark":"mst","procs":2,"scale":16,"scheme":"global"},
		{"benchmark":"mst","procs":2,"scale":16,"scheme":"bilateral"}
	]}`
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []BatchItem
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	misses, hits := 0, 0
	for i, it := range items {
		if it.Status != 200 {
			t.Fatalf("item %d: %+v", i, it)
		}
		switch it.PhaseCache {
		case "miss":
			misses++
		case "hit":
			hits++
		}
	}
	if misses != 1 || hits != 2 {
		t.Fatalf("cold sweep: %d misses, %d hits; want 1 build and 2 restores", misses, hits)
	}
}

// TestBatchValidation pins the request-shape errors.
func TestBatchValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: func(req RunRequest, _ *obs.Span) (record.RunRecord, error) {
		return record.RunRecord{Benchmark: req.Benchmark, Verified: true}, nil
	}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{}`, http.StatusBadRequest},
		{`{"runs":[]}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"runs":[{"benchmark":"treeadd"}]}{"runs":[{"benchmark":"power"}]}`, http.StatusBadRequest},
		{`{"runs":[{"benchmark":"treeadd"}]} garbage`, http.StatusBadRequest},
		{`{"runs":[{"benchmark":"treeadd"},{"benchmark":"treeadd","nocache":true}]}`, http.StatusBadRequest},
		{`{"runs":[{"benchmark":"treeadd"}]}` + "\n", http.StatusOK},
		{`{"runs":[{"benchmark":"treeadd"},{"benchmark":"treeadd"},{"benchmark":"treeadd"},
		   {"benchmark":"treeadd"},{"benchmark":"treeadd"}]}`, http.StatusBadRequest}, // > QueueDepth
		{padBody(`{"runs":[{"benchmark":"treeadd"}]}`, maxBody), http.StatusOK},
		{padBody(`{"runs":[{"benchmark":"treeadd"}]}`, maxBody+1), http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%.60q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch = %d", resp.StatusCode)
	}
}

// sharedBuildBench and failedBuildBench are phase-split benchmarks whose
// Build holds until three jobs of buildServer have been executing at once
// (10 s at most), so the runs of a three-scheme sweep are all in flight
// before any build returns. Every build of failedBuildBench fails.
const (
	sharedBuildBench = "server-test-shared-build"
	failedBuildBench = "server-test-failed-build"
)

var (
	buildServer *Server
	buildCalls  atomic.Int32
	buildsFree  atomic.Bool // latched once three jobs were executing
)

func holdBuild() {
	buildCalls.Add(1)
	for end := time.Now().Add(10 * time.Second); !buildsFree.Load() && time.Now().Before(end); time.Sleep(time.Millisecond) {
		if buildServer.inflight.Load() >= 3 {
			buildsFree.Store(true)
		}
	}
}

func init() {
	kernel := func(bench.Config, *rt.Runtime, any) bench.Result { return bench.Result{} }
	bench.Register(bench.Info{Name: sharedBuildBench, Phased: &bench.Phased{
		Build:  func(bench.Config, *rt.Runtime) any { holdBuild(); return nil },
		Kernel: kernel,
	}})
	bench.Register(bench.Info{Name: failedBuildBench, Phased: &bench.Phased{
		Build: func(bench.Config, *rt.Runtime) any {
			holdBuild()
			panic(&mem.ExhaustedError{Proc: 0, Requested: 1})
		},
		Kernel: kernel,
	}})
}

// sweepConcurrently posts one /run per coherence scheme of benchmark at
// once to a fresh Workers: 3 server and returns each answer's status and
// phase disposition, failing the test if any takes over 30 s.
func sweepConcurrently(t *testing.T, benchmark string) (*Server, []int, []string) {
	t.Helper()
	s := New(Config{Workers: 3, QueueDepth: 8})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	buildServer = s
	buildCalls.Store(0)
	buildsFree.Store(false)

	type answer struct {
		status int
		phase  string
	}
	answers := make(chan answer, 3)
	for _, scheme := range []string{"local", "global", "bilateral"} {
		go func() {
			body := fmt.Sprintf(`{"benchmark":%q,"procs":2,"scheme":%q}`, benchmark, scheme)
			resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
			if err != nil {
				answers <- answer{status: -1}
				return
			}
			resp.Body.Close()
			answers <- answer{resp.StatusCode, resp.Header.Get("X-Oldend-Phase-Cache")}
		}()
	}
	var statuses []int
	var phases []string
	timeout := time.After(30 * time.Second)
	for range 3 {
		select {
		case a := <-answers:
			statuses, phases = append(statuses, a.status), append(phases, a.phase)
		case <-timeout:
			t.Fatalf("%d of 3 runs answered within 30 s: %v", len(statuses), statuses)
		}
	}
	return s, statuses, phases
}

// TestConcurrentRunsShareBuild: three /run requests for one build key,
// all executing at once, build once. The phase cache makes the runs that
// miss while the build is in flight wait for it and restore its state.
func TestConcurrentRunsShareBuild(t *testing.T) {
	s, statuses, phases := sweepConcurrently(t, sharedBuildBench)
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("run %d answered %d", i, st)
		}
	}
	if n := buildCalls.Load(); n != 1 {
		t.Errorf("Build ran %d times for one build key, want 1 (phase dispositions %v)", n, phases)
	}
	misses := counterValue(t, s.Metrics(), "oldend_phase_cache_misses_total")
	hits := counterValue(t, s.Metrics(), "oldend_phase_cache_hits_total")
	if misses != 1 || hits != 2 {
		t.Errorf("phase cache: %d misses, %d hits; want 1 and 2", misses, hits)
	}
}

// TestFailedBuildWakesWaiters: when the build others wait on fails, they
// wake and each builds for itself; every run answers (here 500, as every
// build fails) and none hangs.
func TestFailedBuildWakesWaiters(t *testing.T) {
	_, statuses, _ := sweepConcurrently(t, failedBuildBench)
	for i, st := range statuses {
		if st != http.StatusInternalServerError {
			t.Errorf("run %d answered %d, want 500", i, st)
		}
	}
	if n := buildCalls.Load(); n != 3 {
		t.Errorf("Build ran %d times, want 3 (each run after the failure builds for itself)", n)
	}
}

// keys returns the cached keys from most to least recently used; tests
// assert eviction order through it.
func (c *lruCache[V]) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruItem[V]).key)
	}
	return out
}
