package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/bench/record"
	"repro/internal/obs"

	_ "repro/internal/bench/all"
)

func probeExec(req RunRequest, _ *obs.Span) (record.RunRecord, error) {
	return record.RunRecord{
		Benchmark:   req.Benchmark,
		Procs:       req.Procs,
		Scheme:      req.Scheme,
		Mode:        req.Mode,
		Scale:       req.Scale,
		Cycles:      99,
		Verified:    true,
		TraceDigest: "events=1 hash=p",
	}, nil
}

// TestCacheProbe pins the peer-probe endpoint the cluster router uses
// for hot-key replication: a miss is 404 without executing anything, a
// hit serves the memoized bytes — identical to the /run answer — with
// the cache and digest headers.
func TestCacheProbe(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 8, Execute: probeExec})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"benchmark":"treeadd","procs":2,"scale":32}`
	var q RunRequest
	nq, err := Normalize(RunRequest{Benchmark: "treeadd", Procs: 2, Scale: 32})
	if err != nil {
		t.Fatal(err)
	}
	q = nq
	key := CacheKey(q)
	probeURL := ts.URL + "/cache/probe?key=" + url.QueryEscape(key)

	// Before any execution: miss, no side effects.
	resp, err := http.Get(probeURL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("probe before execution: status %d, want 404", resp.StatusCode)
	}

	status, ran, _ := postRun(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("run: status %d", status)
	}

	resp, err = http.Get(probeURL)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe after execution: status %d, want 200", resp.StatusCode)
	}
	if !bytes.Equal(got, ran) {
		t.Errorf("probe bytes differ from the /run answer:\n%s\nvs\n%s", got, ran)
	}
	if resp.Header.Get("X-Oldend-Cache") != "hit" {
		t.Errorf("probe hit X-Oldend-Cache = %q, want hit", resp.Header.Get("X-Oldend-Cache"))
	}
	if resp.Header.Get("X-Oldend-Trace-Digest") == "" {
		t.Error("probe hit missing X-Oldend-Trace-Digest")
	}

	// Parameter validation: a probe without a key is a 400, and POST is
	// not a probe.
	resp, err = http.Get(ts.URL + "/cache/probe")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("probe without key: status %d, want 400", resp.StatusCode)
	}
}

// TestCacheKeyIsTheCanonicalKey pins the single-source-of-truth
// contract: the exported CacheKey — which the cluster ring hashes — is
// exactly the key the server caches under, and it excludes the
// handling-only fields.
func TestCacheKeyIsTheCanonicalKey(t *testing.T) {
	q, err := Normalize(RunRequest{Benchmark: "treeadd", Procs: 4, Scale: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, key, _, err := DecodeRun(strings.NewReader(`{"benchmark":"treeadd","procs":4,"scale":64}`), -1); err != nil || key != CacheKey(q) {
		t.Fatalf("DecodeRun key %q (%v) != CacheKey() %q", key, err, CacheKey(q))
	}
	with := q
	with.NoCache, with.DeadlineMS = true, 123
	if CacheKey(with) != CacheKey(q) {
		t.Error("CacheKey must ignore NoCache/DeadlineMS (handling, not identity)")
	}
}

// TestDisposition pins the cache-disposition classifier shared by /run
// and /batch.
func TestDisposition(t *testing.T) {
	base := RunRequest{Benchmark: "treeadd", Procs: 1}
	if d := base.Disposition(); d != "miss" {
		t.Errorf("plain request disposition %q, want miss", d)
	}
	nc := base
	nc.NoCache = true
	if d := nc.Disposition(); d != "bypass" {
		t.Errorf("no_cache disposition %q, want bypass", d)
	}
}

// TestShardNameHeader: a replica configured with a shard name advertises
// it on every response.
func TestShardNameHeader(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: probeExec, ShardName: "shard7"})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, _, h := postRun(t, ts, `{"benchmark":"treeadd","procs":1}`)
	if got := h.Get("X-Oldend-Shard"); got != "shard7" {
		t.Errorf("X-Oldend-Shard = %q, want shard7", got)
	}
}
