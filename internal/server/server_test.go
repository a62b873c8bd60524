package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench/record"
	"repro/internal/metrics"
	"repro/internal/obs"

	_ "repro/internal/bench/all"
)

// blockingExec is a test executor whose runs park until released, making
// queue occupancy deterministic without depending on benchmark timing.
type blockingExec struct {
	started chan string   // receives the key of each run as it begins
	release chan struct{} // one receive per run unblocks it
	calls   atomic.Int64
}

func newBlockingExec() *blockingExec {
	return &blockingExec{
		started: make(chan string, 16),
		release: make(chan struct{}, 16),
	}
}

func (b *blockingExec) fn(req RunRequest, _ *obs.Span) (record.RunRecord, error) {
	b.calls.Add(1)
	b.started <- CacheKey(req)
	<-b.release
	return record.RunRecord{
		Benchmark:   req.Benchmark,
		Procs:       req.Procs,
		Scheme:      req.Scheme,
		Mode:        req.Mode,
		Scale:       req.Scale,
		Cycles:      1234,
		Verified:    true,
		TraceDigest: "digest-" + CacheKey(req),
	}, nil
}

// postRun fires one POST /run and returns status, body and headers.
func postRun(t *testing.T, ts *httptest.Server, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b, resp.Header
}

// asyncRun fires POST /run in a goroutine and delivers the outcome.
type runOutcome struct {
	status int
	body   []byte
	header http.Header
}

func asyncRun(t *testing.T, ts *httptest.Server, body string) <-chan runOutcome {
	t.Helper()
	ch := make(chan runOutcome, 1)
	go func() {
		status, b, h := postRun(t, ts, body)
		ch <- runOutcome{status, b, h}
	}()
	return ch
}

func waitStarted(t *testing.T, exec *blockingExec) string {
	t.Helper()
	select {
	case k := <-exec.started:
		return k
	case <-time.After(5 * time.Second):
		t.Fatal("no run started within 5s")
		return ""
	}
}

// waitQueueDepth polls until the admission queue holds want jobs.
func waitQueueDepth(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.queue) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth never reached %d (at %d)", want, len(s.queue))
}

func counterValue(t *testing.T, reg *metrics.Registry, name string, labels ...metrics.Label) int64 {
	t.Helper()
	sm, ok := reg.Snapshot().Get(name, labels...)
	if !ok {
		return 0
	}
	return sm.Value
}

// TestQueueFullSheds pins the admission-control contract: with the one
// worker busy and the queue full, the next request is shed with 429 and a
// Retry-After hint — never queued unboundedly, never a 5xx.
func TestQueueFullSheds(t *testing.T) {
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 1, Execute: exec.fn, RetryAfter: 2 * time.Second})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct configs so the cache can't satisfy anything.
	a := asyncRun(t, ts, `{"benchmark":"treeadd","procs":1}`)
	waitStarted(t, exec) // worker occupied by A
	b := asyncRun(t, ts, `{"benchmark":"treeadd","procs":2}`)
	waitQueueDepth(t, s, 1) // B parked in the queue

	status, body, h := postRun(t, ts, `{"benchmark":"treeadd","procs":3}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated POST /run = %d, want 429 (body %s)", status, body)
	}
	if h.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want %q", h.Get("Retry-After"), "2")
	}
	if got := counterValue(t, s.Metrics(), "oldend_shed_total"); got != 1 {
		t.Fatalf("oldend_shed_total = %d, want 1", got)
	}

	// Draining the pool completes both admitted requests with 200.
	exec.release <- struct{}{}
	exec.release <- struct{}{}
	waitStarted(t, exec)
	for name, ch := range map[string]<-chan runOutcome{"A": a, "B": b} {
		out := <-ch
		if out.status != http.StatusOK {
			t.Fatalf("admitted request %s = %d, want 200 (body %s)", name, out.status, out.body)
		}
	}
}

// TestExpiredDeadlineFreesSlot pins deadline handling at the dequeue
// phase boundary: a job whose deadline lapsed while queued answers 504,
// is never executed, and the worker slot immediately serves later work.
func TestExpiredDeadlineFreesSlot(t *testing.T) {
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 2, Execute: exec.fn})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := asyncRun(t, ts, `{"benchmark":"treeadd","procs":1}`)
	waitStarted(t, exec)
	b := asyncRun(t, ts, `{"benchmark":"treeadd","procs":2,"deadline_ms":50}`)
	waitQueueDepth(t, s, 1)
	outB := <-b
	if outB.status != http.StatusGatewayTimeout {
		t.Fatalf("expired request = %d, want 504 (body %s)", outB.status, outB.body)
	}
	c := asyncRun(t, ts, `{"benchmark":"treeadd","procs":3}`)
	waitQueueDepth(t, s, 2)

	callsBefore := exec.calls.Load()
	exec.release <- struct{}{} // finish A; worker must skip B and start C
	keyC := waitStarted(t, exec)
	if !strings.Contains(keyC, "P=3") {
		t.Fatalf("worker picked up %q after skip, want the P=3 job", keyC)
	}
	exec.release <- struct{}{}
	outA, outC := <-a, <-c
	if outA.status != http.StatusOK || outC.status != http.StatusOK {
		t.Fatalf("live requests = %d/%d, want 200/200", outA.status, outC.status)
	}
	if got := exec.calls.Load() - callsBefore; got != 1 {
		t.Fatalf("worker executed %d jobs after release, want 1 (expired job must not run)", got)
	}
	if got := counterValue(t, s.Metrics(), "oldend_deadline_expired_total"); got != 1 {
		t.Fatalf("oldend_deadline_expired_total = %d, want 1", got)
	}
}

// TestGracefulDrain pins the drain order: readiness fails first, new runs
// are refused with 503, in-flight and queued jobs complete with 200, and
// Shutdown returns once the pool is idle.
func TestGracefulDrain(t *testing.T) {
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getStatus(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}
	a := asyncRun(t, ts, `{"benchmark":"treeadd","procs":1}`)
	waitStarted(t, exec)
	b := asyncRun(t, ts, `{"benchmark":"treeadd","procs":2}`)
	waitQueueDepth(t, s, 1)

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitDraining(t, s)

	if code := getStatus(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
	if code := getStatus(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200 (liveness persists)", code)
	}
	status, _, h := postRun(t, ts, `{"benchmark":"treeadd","procs":3}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("POST /run during drain = %d, want 503", status)
	}
	if h.Get("Retry-After") == "" {
		t.Fatal("503 during drain missing Retry-After")
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with jobs still in flight", err)
	default:
	}

	exec.release <- struct{}{}
	waitStarted(t, exec)
	exec.release <- struct{}{}
	outA, outB := <-a, <-b
	if outA.status != http.StatusOK || outB.status != http.StatusOK {
		t.Fatalf("draining jobs = %d/%d, want 200/200 (drain must finish in-flight work)",
			outA.status, outB.status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown = %v, want nil (idempotent)", err)
	}
}

func getStatus(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.draining.Load() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never entered draining state")
}

// instantExec completes immediately with a per-call digest sequence.
type instantExec struct {
	calls   atomic.Int64
	digests []string // digest per call; last repeats
}

func (e *instantExec) fn(req RunRequest, _ *obs.Span) (record.RunRecord, error) {
	n := int(e.calls.Add(1)) - 1
	d := e.digests[len(e.digests)-1]
	if n < len(e.digests) {
		d = e.digests[n]
	}
	return record.RunRecord{
		Benchmark: req.Benchmark, Procs: req.Procs, Scheme: req.Scheme,
		Mode: req.Mode, Scale: req.Scale, Cycles: 42, Verified: true,
		TraceDigest: d,
	}, nil
}

// TestCacheHitByteIdentical pins memoization: the second identical
// request is served from cache, byte-for-byte equal to the first
// response, without executing, and advertises the same trace digest.
func TestCacheHitByteIdentical(t *testing.T) {
	exec := &instantExec{digests: []string{"events=7 hash=abc"}}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"benchmark":"treeadd","procs":2,"scheme":"global"}`
	st1, b1, h1 := postRun(t, ts, body)
	st2, b2, h2 := postRun(t, ts, body)
	if st1 != 200 || st2 != 200 {
		t.Fatalf("statuses %d/%d, want 200/200", st1, st2)
	}
	if h1.Get("X-Oldend-Cache") != "miss" || h2.Get("X-Oldend-Cache") != "hit" {
		t.Fatalf("cache headers %q/%q, want miss/hit",
			h1.Get("X-Oldend-Cache"), h2.Get("X-Oldend-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
	// Fresh and memoized answers come from one renderer: the miss carries
	// the digest too, which is what lets a router compare a hit on one
	// replica with an execution on another.
	for label, h := range map[string]http.Header{"miss": h1, "hit": h2} {
		if got := h.Get("X-Oldend-Trace-Digest"); got != "events=7 hash=abc" {
			t.Fatalf("%s digest header = %q", label, got)
		}
	}
	if exec.calls.Load() != 1 {
		t.Fatalf("executor ran %d times, want 1", exec.calls.Load())
	}
	var rec record.RunRecord
	if err := json.Unmarshal(b2, &rec); err != nil {
		t.Fatalf("hit body is not a RunRecord: %v", err)
	}
	if rec.TraceDigest != "events=7 hash=abc" {
		t.Fatalf("hit record digest = %q", rec.TraceDigest)
	}
	if got := counterValue(t, s.Metrics(), "oldend_cache_hits_total"); got != 1 {
		t.Fatalf("oldend_cache_hits_total = %d, want 1", got)
	}
}

// TestVerifyCrossChecksDigest pins the determinism cross-check: Verify
// re-runs a memoized config and 500s on digest divergence.
func TestVerifyCrossChecksDigest(t *testing.T) {
	exec := &instantExec{digests: []string{"d1", "d1", "DIVERGED"}}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"benchmark":"treeadd","procs":2}`
	if st, b, _ := postRun(t, ts, body); st != 200 {
		t.Fatalf("prime = %d (%s)", st, b)
	}
	st, _, _ := postRun(t, ts, `{"benchmark":"treeadd","procs":2,"verify":true}`)
	if st != 200 {
		t.Fatalf("matching verify = %d, want 200", st)
	}
	if got := counterValue(t, s.Metrics(), "oldend_cache_verify_total", metrics.L("outcome", "match")); got != 1 {
		t.Fatalf("verify match counter = %d, want 1", got)
	}
	st, b, _ := postRun(t, ts, `{"benchmark":"treeadd","procs":2,"verify":true}`)
	if st != http.StatusInternalServerError {
		t.Fatalf("diverged verify = %d, want 500 (body %s)", st, b)
	}
	if !strings.Contains(string(b), "determinism violation") {
		t.Fatalf("diverged verify body %s", b)
	}
	if got := counterValue(t, s.Metrics(), "oldend_cache_verify_total", metrics.L("outcome", "mismatch")); got != 1 {
		t.Fatalf("verify mismatch counter = %d, want 1", got)
	}
}

// padBody pads a JSON body with trailing spaces to n bytes.
func padBody(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }

// TestRequestValidation pins the 4xx surface.
func TestRequestValidation(t *testing.T) {
	exec := &instantExec{digests: []string{"d"}}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		body string
		want int
	}{
		{`{"benchmark":"nosuch"}`, 400},
		{`{}`, 400},
		{`{"benchmark":"treeadd","scheme":"mesi"}`, 400},
		{`{"benchmark":"treeadd","mode":"warp"}`, 400},
		{`{"benchmark":"treeadd","procs":65}`, 400},
		{`{"benchmark":"treeadd","procs":-1}`, 400},
		{`not json`, 400},
		{`{"benchmark":"treeadd"}{"benchmark":"power"}`, 400},
		{`{"benchmark":"treeadd"} garbage`, 400},
		{`{"benchmark":"treeadd"}` + "\n", 200},
		{`{"benchmark":"treeadd"}`, 200},
		{padBody(`{"benchmark":"treeadd"}`, maxBody), 200},
		{padBody(`{"benchmark":"treeadd"}`, maxBody+1), 413},
	}
	for _, c := range cases {
		st, b, _ := postRun(t, ts, c.body)
		if st != c.want {
			t.Errorf("POST %.60q = %d, want %d (%s)", c.body, st, c.want, b)
		}
		if st == http.StatusRequestEntityTooLarge && !strings.Contains(string(b), strconv.Itoa(maxBody)) {
			t.Errorf("413 body %s does not state the %d-byte limit", b, maxBody)
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run = %d, want 405", resp.StatusCode)
	}
}

// TestScaleBelowSectionRefused: barneshut at scale 1 or 2 exhausts
// processor 0's heap section inside the kernel, which kills the process,
// so the prologue refuses it with a 400 naming the limit and nothing
// executes. Scale 3 is the smallest that fits; 4 still normalizes.
func TestScaleBelowSectionRefused(t *testing.T) {
	exec := &instantExec{digests: []string{"d"}}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, scale := range []int{1, 2} {
		body := fmt.Sprintf(`{"benchmark":"barneshut","scale":%d}`, scale)
		if st, b, _ := postRun(t, ts, body); st != http.StatusBadRequest || !strings.Contains(string(b), "64 MiB heap section") {
			t.Errorf("POST %s = %d %s, want a 400 naming the 64 MiB section", body, st, b)
		}
	}
	if n := exec.calls.Load(); n != 0 {
		t.Errorf("%d refused requests executed", n)
	}
	for _, scale := range []int{3, 4} {
		if q, err := Normalize(RunRequest{Benchmark: "barneshut", Scale: scale}); err != nil || q.Scale != scale {
			t.Errorf("barneshut at scale %d: %+v, %v; want it normalized", scale, q, err)
		}
	}
}

// TestMetricsAndCatalogEndpoints pins the observability surface: the
// exposition Content-Type, server-level series presence, and the catalog
// matching the canonical bytes.
func TestMetricsAndCatalogEndpoints(t *testing.T) {
	exec := &instantExec{digests: []string{"d"}}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postRun(t, ts, `{"benchmark":"treeadd"}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# HELP oldend_requests_total",
		"# TYPE oldend_queue_depth gauge",
		"oldend_cache_misses_total",
		`oldend_runs_total{benchmark="treeadd"} 1`,
		"oldend_run_us_count",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAccessLogShape pins the structured log: one JSON object per
// request with the run fields attached.
func TestAccessLogShape(t *testing.T) {
	var buf syncBuffer
	exec := &instantExec{digests: []string{"d"}}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn, AccessLog: NewAccessLogger(&buf)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postRun(t, ts, `{"benchmark":"treeadd","procs":2}`)
	getStatus(t, ts, "/healthz")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2:\n%s", len(lines), buf.String())
	}
	var runLine map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &runLine); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	for _, k := range []string{"time", "method", "path", "status", "benchmark", "key", "cache", "dur_us"} {
		if _, ok := runLine[k]; !ok {
			t.Errorf("run log line missing %q: %s", k, lines[0])
		}
	}
	if runLine["path"] != "/run" || runLine["benchmark"] != "treeadd" || runLine["cache"] != "miss" {
		t.Errorf("run log fields wrong: %s", lines[0])
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestResultCacheLRU pins the deterministic eviction order.
func TestResultCacheLRU(t *testing.T) {
	c := newLRU[*cacheEntry](2)
	put := func(k string) { c.put(k, &cacheEntry{body: []byte(k)}) }
	put("a")
	put("b")
	if _, ok := lruGet(c, "a"); !ok { // promotes a
		t.Fatal("a missing")
	}
	put("c") // evicts b (least recently used), not a
	if _, ok := lruGet(c, "b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := lruGet(c, "a"); !ok {
		t.Fatal("a should have survived (was promoted)")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// refresh replaces in place
	c.put("a", &cacheEntry{body: []byte("a2")})
	if e, _ := lruGet(c, "a"); string(e.body) != "a2" {
		t.Fatal("refresh did not replace body")
	}
	// disabled cache never stores
	d := newLRU[*cacheEntry](-1)
	d.put("x", &cacheEntry{})
	if _, ok := lruGet(d, "x"); ok || d.len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestRealExecutorEndToEnd exercises the default benchmark executor
// through the full HTTP path: a real treeadd run, then a cache hit that
// must be byte-identical with the digest intact — the acceptance
// criterion's memoization soundness check in miniature.
func TestRealExecutorEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"benchmark":"treeadd","procs":2,"scale":16}`
	st1, b1, h1 := postRun(t, ts, body)
	if st1 != 200 {
		t.Fatalf("real run = %d (%s)", st1, b1)
	}
	var rec record.RunRecord
	if err := json.Unmarshal(b1, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Verified || rec.Cycles <= 0 || rec.TraceDigest == "" {
		t.Fatalf("run record implausible: %+v", rec)
	}
	st2, b2, h2 := postRun(t, ts, body)
	if st2 != 200 || h2.Get("X-Oldend-Cache") != "hit" {
		t.Fatalf("repeat = %d cache=%q, want 200 hit", st2, h2.Get("X-Oldend-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cache hit diverged from original run bytes")
	}
	if h1.Get("X-Oldend-Cache") != "miss" {
		t.Fatalf("first run cache header = %q", h1.Get("X-Oldend-Cache"))
	}
	// And the verify path against a real deterministic run must match.
	st3, b3, _ := postRun(t, ts, `{"benchmark":"treeadd","procs":2,"scale":16,"verify":true}`)
	if st3 != 200 {
		t.Fatalf("verify of real run = %d (%s) — determinism violation?", st3, b3)
	}
	if got := counterValue(t, s.Metrics(), "oldend_cache_verify_total", metrics.L("outcome", "mismatch")); got != 0 {
		t.Fatalf("real run verify mismatches = %d, want 0", got)
	}
}
