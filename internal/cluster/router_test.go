package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench/record"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"

	_ "repro/internal/bench/all"
)

// fastExec is a deterministic substitute executor: every replica given
// the same function produces the same bytes for the same config, which
// is exactly the determinism contract the router leans on.
func fastExec(req server.RunRequest, _ *obs.Span) (record.RunRecord, error) {
	return record.RunRecord{
		Benchmark:   req.Benchmark,
		Procs:       req.Procs,
		Scheme:      req.Scheme,
		Mode:        req.Mode,
		Scale:       req.Scale,
		Cycles:      4242,
		Verified:    true,
		TraceDigest: "digest-" + server.CacheKey(req),
	}, nil
}

// newReplica boots one real oldend server (substituted executor, real
// cache, real probe endpoint) under httptest.
func newReplica(t *testing.T, shardName string, exec server.ExecuteFunc) *httptest.Server {
	t.Helper()
	s := server.New(server.Config{
		Workers:      2,
		QueueDepth:   16,
		CacheEntries: 64,
		ShardName:    shardName,
		Execute:      exec,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

type testCluster struct {
	router   *Router
	front    *httptest.Server
	replicas map[string]*httptest.Server // base URL -> replica
	shards   map[string]string           // base URL -> shard name
}

func newTestCluster(t *testing.T, n int, cfg Config, exec server.ExecuteFunc) *testCluster {
	t.Helper()
	tc := &testCluster{
		replicas: map[string]*httptest.Server{},
		shards:   map[string]string{},
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard%d", i)
		ts := newReplica(t, name, exec)
		cfg.Replicas = append(cfg.Replicas, ts.URL)
		tc.replicas[ts.URL] = ts
		tc.shards[ts.URL] = name
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.front = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

func postJSON(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b, resp.Header
}

const runBody = `{"benchmark":"treeadd","procs":2,"scale":32}`

// keyOf computes the canonical key the router hashes for runBody-style
// requests — through the same Normalize/CacheKey pair the router uses.
func keyOf(t *testing.T, body string) string {
	t.Helper()
	var q server.RunRequest
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		t.Fatal(err)
	}
	nq, err := server.Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	return server.CacheKey(nq)
}

// TestRouterRoutesToOwnerAndServesCacheHits pins the basic contract: a
// run lands on the ring owner of its canonical key, names that shard in
// X-Oldend-Shard, and a repeat is a byte-identical cache hit on the same
// shard with the replica's cache/digest headers intact end to end.
func TestRouterRoutesToOwnerAndServesCacheHits(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, fastExec)
	owner := tc.router.Ring().Owner(keyOf(t, runBody))
	wantShard := tc.shards[owner]

	st, b1, h1 := postJSON(t, tc.front.URL+"/run", runBody)
	if st != http.StatusOK {
		t.Fatalf("first run: status %d: %s", st, b1)
	}
	if got := h1.Get("X-Oldend-Shard"); got != wantShard {
		t.Errorf("routed to shard %q, ring owner is %q", got, wantShard)
	}
	if got := h1.Get("X-Oldend-Cache"); got != "miss" {
		t.Errorf("first run X-Oldend-Cache = %q, want miss", got)
	}
	st, b2, h2 := postJSON(t, tc.front.URL+"/run", runBody)
	if st != http.StatusOK {
		t.Fatalf("repeat run: status %d", st)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cache-hit repeat not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
	if got := h2.Get("X-Oldend-Cache"); got != "hit" {
		t.Errorf("repeat X-Oldend-Cache = %q, want hit", got)
	}
	if got := h2.Get("X-Oldend-Shard"); got != wantShard {
		t.Errorf("repeat routed to %q, want %q", got, wantShard)
	}
	if h2.Get("X-Oldend-Trace-Digest") == "" {
		t.Error("X-Oldend-Trace-Digest not preserved through the router on the cache hit")
	}
}

// TestRouterRetriesNextOwner kills the primary owner and requires the
// request to succeed on a fallback owner with zero client-visible
// errors — deterministic replicas make any owner a correct answer.
func TestRouterRetriesNextOwner(t *testing.T) {
	tc := newTestCluster(t, 3, Config{DownCooldown: time.Minute}, fastExec)
	owner := tc.router.Ring().Owner(keyOf(t, runBody))
	tc.replicas[owner].Close()

	st, body, h := postJSON(t, tc.front.URL+"/run", runBody)
	if st != http.StatusOK {
		t.Fatalf("run with primary down: status %d: %s", st, body)
	}
	if got := h.Get("X-Oldend-Shard"); got == tc.shards[owner] || got == "" {
		t.Errorf("answered by %q, want a fallback shard (primary %q is down)", got, tc.shards[owner])
	}
	if n := tc.router.retries.Load(); n == 0 {
		t.Error("retry counter did not move")
	}

	// The primary is now inside its cooldown: the next request must not
	// pay the connection failure again (no new retries).
	before := tc.router.retries.Load()
	st, _, _ = postJSON(t, tc.front.URL+"/run", runBody)
	if st != http.StatusOK {
		t.Fatalf("second run: status %d", st)
	}
	if n := tc.router.retries.Load(); n != before {
		t.Errorf("cooldown not honored: retries went %d -> %d", before, n)
	}
}

// TestRouterAllOwnersDown503 requires the documented failure answer —
// 503 with Retry-After — when no replica is reachable.
func TestRouterAllOwnersDown503(t *testing.T) {
	tc := newTestCluster(t, 3, Config{RetryAfter: 3 * time.Second}, fastExec)
	for _, ts := range tc.replicas {
		ts.Close()
	}
	st, body, h := postJSON(t, tc.front.URL+"/run", runBody)
	if st != http.StatusServiceUnavailable {
		t.Fatalf("all replicas down: status %d: %s", st, body)
	}
	if got := h.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want %q", got, "3")
	}
	if n := tc.router.unroutable.Load(); n == 0 {
		t.Error("unroutable counter did not move")
	}
}

// TestRouterVerifyMatch duplicates every execution to a second replica;
// identical replicas must agree byte-for-byte, so the mismatch counter
// must stay zero while the match counter moves.
func TestRouterVerifyMatch(t *testing.T) {
	tc := newTestCluster(t, 2, Config{VerifyEvery: 1}, fastExec)
	st, _, _ := postJSON(t, tc.front.URL+"/run", runBody)
	if st != http.StatusOK {
		t.Fatalf("run: status %d", st)
	}
	if n := tc.router.verifyMatch.Load(); n != 1 {
		t.Errorf("verify match counter = %d, want 1", n)
	}
	if n := tc.router.verifyMismatch.Load(); n != 0 {
		t.Errorf("verify mismatch counter = %d, want 0", n)
	}
}

// TestRouterVerifyMismatch builds a deliberately broken cluster — two
// replicas whose executors disagree — and requires the router to catch
// it: mismatch counted, primary's answer still served as a 200.
func TestRouterVerifyMismatch(t *testing.T) {
	divergent := func(req server.RunRequest, sp *obs.Span) (record.RunRecord, error) {
		rec, _ := fastExec(req, sp)
		rec.Cycles = 6666 // nondeterminism stand-in
		rec.TraceDigest = "divergent-" + server.CacheKey(req)
		return rec, nil
	}
	tc := &testCluster{replicas: map[string]*httptest.Server{}, shards: map[string]string{}}
	a := newReplica(t, "shard0", fastExec)
	b := newReplica(t, "shard1", divergent)
	tc.replicas[a.URL], tc.shards[a.URL] = a, "shard0"
	tc.replicas[b.URL], tc.shards[b.URL] = b, "shard1"
	rt, err := NewRouter(Config{Replicas: []string{a.URL, b.URL}, VerifyEvery: 1, AccessLog: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.front = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.front.Close)

	st, _, _ := postJSON(t, tc.front.URL+"/run", runBody)
	if st != http.StatusOK {
		t.Fatalf("run: status %d (mismatch must not fail the client request)", st)
	}
	if n := rt.verifyMismatch.Load(); n != 1 {
		t.Errorf("verify mismatch counter = %d, want 1", n)
	}
	if n := rt.verifyMatch.Load(); n != 0 {
		t.Errorf("verify match counter = %d, want 0", n)
	}
}

// TestRouterProbeServesPeerCache runs with hot-key replication width 2:
// once a key is resident on any of its first two owners, subsequent
// requests must be served from that cache via /cache/probe regardless of
// where the round-robin cursor points.
func TestRouterProbeServesPeerCache(t *testing.T) {
	tc := newTestCluster(t, 3, Config{ProbeOwners: 2}, fastExec)
	st, b1, _ := postJSON(t, tc.front.URL+"/run", runBody)
	if st != http.StatusOK {
		t.Fatalf("first run: status %d", st)
	}
	// Several repeats: whichever owner the rotation picks, the probe
	// phase must find the resident copy and serve identical bytes.
	hits := 0
	for i := 0; i < 4; i++ {
		st, b, h := postJSON(t, tc.front.URL+"/run", runBody)
		if st != http.StatusOK {
			t.Fatalf("repeat %d: status %d", i, st)
		}
		if !bytes.Equal(b1, b) {
			t.Fatalf("repeat %d not byte-identical", i)
		}
		if h.Get("X-Oldend-Cache") == "hit" {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("only %d/4 repeats were cache hits", hits)
	}
	var probeHits int64
	for _, u := range tc.router.names {
		probeHits += tc.router.cfg.Metrics.Counter("oldenrouter_probe_total",
			metrics.L("shard", u), metrics.L("outcome", "hit")).Load()
	}
	if probeHits == 0 {
		t.Error("no probe hits recorded; repeats were not served from peer caches")
	}
}

// TestRouterBatchShardsAndMerges sends a mixed batch — several valid
// configs spread over the ring plus one invalid item — and requires the
// response in request order with item-local statuses, exactly as one
// replica would have answered.
func TestRouterBatchShardsAndMerges(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, fastExec)
	batch := `{"runs":[
		{"benchmark":"treeadd","procs":1,"scale":16},
		{"benchmark":"nope"},
		{"benchmark":"treeadd","procs":2,"scale":16},
		{"benchmark":"treeadd","procs":4,"scale":16},
		{"benchmark":"treeadd","procs":8,"scale":16}]}`
	st, body, h := postJSON(t, tc.front.URL+"/batch", batch)
	if st != http.StatusOK {
		t.Fatalf("batch: status %d: %s", st, body)
	}
	var items []server.BatchItem
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatalf("batch response: %v", err)
	}
	if len(items) != 5 {
		t.Fatalf("batch answered %d items, want 5", len(items))
	}
	for i, it := range items {
		want := http.StatusOK
		if i == 1 {
			want = http.StatusBadRequest
		}
		if it.Status != want {
			t.Errorf("item %d: status %d, want %d (%s)", i, it.Status, want, it.Error)
		}
	}
	if items[3].Key != keyOf(t, `{"benchmark":"treeadd","procs":4,"scale":16}`) {
		t.Errorf("item order not preserved: item 3 is %q", items[3].Key)
	}
	if xb := h.Get("X-Oldend-Batch"); !strings.Contains(xb, "runs=5") || !strings.Contains(xb, "shards=") {
		t.Errorf("X-Oldend-Batch = %q, want runs=5 and a shards count", xb)
	}

	// Whole-request validation is the prologue the router shares with a
	// replica: one JSON value per body, nothing after it but whitespace.
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/run", runBody + `{"benchmark":"power"}`, http.StatusBadRequest},
		{"/run", runBody + ` garbage`, http.StatusBadRequest},
		{"/run", runBody + "\n", http.StatusOK},
		{"/batch", `{"runs":[` + runBody + `]}{"runs":[]}`, http.StatusBadRequest},
		{"/batch", `{"runs":[` + runBody + `]} garbage`, http.StatusBadRequest},
		{"/batch", `{"runs":[` + runBody + `]}` + "\n", http.StatusOK},
	} {
		if st, b, _ := postJSON(t, tc.front.URL+c.path, c.body); st != c.want {
			t.Errorf("POST %s %q = %d, want %d (%s)", c.path, c.body, st, c.want, b)
		}
	}
}

// TestRouterReadyz: ready while at least one replica is, 503 when none.
func TestRouterReadyz(t *testing.T) {
	tc := newTestCluster(t, 2, Config{}, fastExec)
	resp, err := http.Get(tc.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz struct {
		Status      string            `json:"status"`
		ReadyShards int               `json:"ready_shards"`
		Shards      map[string]string `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rz.ReadyShards != 2 {
		t.Fatalf("readyz with all replicas up: status %d, ready %d", resp.StatusCode, rz.ReadyShards)
	}
	for _, ts := range tc.replicas {
		ts.Close()
	}
	resp, err = http.Get(tc.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with all replicas down: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("readyz 503 missing Retry-After")
	}
}

// TestRouterDebugTraceFanOut drives a sampled request through the router
// and requires /debug/trace/<id> — asked of the ROUTER — to find the
// trace on whichever replica retained it.
func TestRouterDebugTraceFanOut(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, fastExec)
	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodPost, tc.front.URL+"/run", strings.NewReader(runBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled run: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Oldend-Trace-Id"); got != traceID {
		t.Fatalf("trace id %q did not survive the router, got %q", traceID, got)
	}
	resp, err = http.Get(tc.front.URL + "/debug/trace/" + traceID + "?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace via router: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(traceID)) {
		t.Errorf("trace export does not mention the trace id: %s", body)
	}
}

// TestRouterDebugRequestsMergesShards requires the fan-out view to carry
// every shard plus the router's own ring.
func TestRouterDebugRequestsMergesShards(t *testing.T) {
	tc := newTestCluster(t, 2, Config{}, fastExec)
	postJSON(t, tc.front.URL+"/run", runBody)
	resp, err := http.Get(tc.front.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Router map[string]json.RawMessage `json:"router"`
		Shards map[string]json.RawMessage `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if len(view.Shards) != 2 {
		t.Errorf("debug view has %d shards, want 2", len(view.Shards))
	}
	if view.Router == nil {
		t.Error("debug view missing the router's own section")
	}
}

// TestRouterBenchmarksProxied: the catalog comes from any replica and
// names the shard that answered.
func TestRouterBenchmarksProxied(t *testing.T) {
	tc := newTestCluster(t, 2, Config{}, fastExec)
	resp, err := http.Get(tc.front.URL + "/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/benchmarks via router: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Oldend-Shard") == "" {
		t.Error("/benchmarks response does not name the answering shard")
	}
}

// oversizeReplica answers one byte over the router's reply cap: on /run
// with a Content-Length that says so, on /debug/trace/<id> (when trace is
// set; 404 otherwise) without one, so only reading the body shows it.
func oversizeReplica(t *testing.T, runs *atomic.Int64, trace bool) *httptest.Server {
	chunk := bytes.Repeat([]byte("x"), 64<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/run":
			runs.Add(1)
			w.Header().Set("Content-Length", strconv.Itoa(maxReply+1))
		case !trace:
			http.NotFound(w, r)
			return
		}
		for n := maxReply + 1; n > 0; n -= len(chunk) {
			if _, err := w.Write(chunk[:min(n, len(chunk))]); err != nil {
				return // the router stopped reading
			}
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestOversizeReplyIs502 requires a replica reply over the cap to reach
// the client as a 502 naming the shard, never as a truncated 200, and to
// count as an answer: no retry on the next owner, no shard marked down.
func TestOversizeReplyIs502(t *testing.T) {
	var runs atomic.Int64
	a, b := oversizeReplica(t, &runs, true), oversizeReplica(t, &runs, false)
	rt, err := NewRouter(Config{Replicas: []string{a.URL, b.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	check := func(what string, resp *http.Response) {
		t.Helper()
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		shard := resp.Header.Get("X-Oldend-Shard")
		if resp.StatusCode != http.StatusBadGateway || shard == "" ||
			!strings.Contains(string(body), shard) || !strings.Contains(string(body), strconv.Itoa(maxReply)) {
			t.Errorf("%s: status %d, X-Oldend-Shard %q, body %.200s; want a 502 naming the shard and the limit",
				what, resp.StatusCode, shard, body)
		}
	}
	resp, err := http.Post(front.URL+"/run", "application/json", strings.NewReader(runBody))
	if err != nil {
		t.Fatal(err)
	}
	check("/run", resp)
	resp, err = http.Get(front.URL + "/debug/trace/4bf92f3577b34da6a3ce929d0e0e4736")
	if err != nil {
		t.Fatal(err)
	}
	check("/debug/trace", resp)

	if n := runs.Load(); n != 1 {
		t.Errorf("replicas saw %d /run requests, want 1 (an oversize answer is not retried)", n)
	}
	if n := rt.retries.Load(); n != 0 {
		t.Errorf("oldenrouter_proxy_retries_total = %d, want 0", n)
	}
	snap := rt.Metrics().Snapshot()
	for _, name := range rt.names {
		if sm, _ := snap.Get("oldenrouter_replica_down_total", metrics.L("shard", name)); sm.Value != 0 {
			t.Errorf("oldenrouter_replica_down_total{shard=%q} = %d, want 0", name, sm.Value)
		}
		if !rt.alive(rt.shards[name]) {
			t.Errorf("shard %s marked down by an oversize reply", name)
		}
	}
}

// TestRouteParityWithReplica holds Handler's doc to its word: the router's
// surface is the same shape as one oldend's. The wrong method on each
// method-guarded client path and a GET on the two health paths must find
// the path registered on both muxes (405 or 200, not 404); /analyze is
// gone from both; /cache/probe is the one documented replica-only route.
// A body one byte over the 1 MiB limit is a 413 on both, on /run and
// /batch.
func TestRouteParityWithReplica(t *testing.T) {
	tc := newTestCluster(t, 1, Config{}, fastExec)
	replica := tc.router.names[0]
	over := func(body string) string { return body + strings.Repeat(" ", 1<<20+1-len(body)) }
	for _, rc := range []struct {
		method, path    string
		replica, router int
		body            string
	}{
		{http.MethodGet, "/run", 405, 405, "{}"},
		{http.MethodGet, "/batch", 405, 405, "{}"},
		{http.MethodPost, "/benchmarks", 405, 405, "{}"},
		{http.MethodPost, "/metrics", 405, 405, "{}"},
		{http.MethodPost, "/debug/requests", 405, 405, "{}"},
		{http.MethodGet, "/healthz", 200, 200, "{}"},
		{http.MethodGet, "/readyz", 200, 200, "{}"},
		{http.MethodPost, "/analyze", 404, 404, "{}"},
		{http.MethodPost, "/cache/probe", 405, 404, "{}"},
		{http.MethodPost, "/run", 413, 413, over(runBody)},
		{http.MethodPost, "/batch", 413, 413, over(`{"runs":[` + runBody + `]}`)},
	} {
		for _, side := range []struct {
			name, base string
			want       int
		}{{"replica", replica, rc.replica}, {"router", tc.front.URL, rc.router}} {
			req, err := http.NewRequest(rc.method, side.base+rc.path, strings.NewReader(rc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s on the %s: %v", rc.method, rc.path, side.name, err)
			}
			resp.Body.Close()
			if resp.StatusCode != side.want {
				t.Errorf("%s %s on the %s = %d, want %d", rc.method, rc.path, side.name, resp.StatusCode, side.want)
			}
		}
	}
}
