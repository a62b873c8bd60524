package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench/record"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestVerifyHitAgainstFreshPeerMatches requires a result-cache hit and a
// fresh execution of one key to be the same answer on the wire, as
// cluster_smoke.sh's cross-replica sweep compares them: one replica serves
// the key as a hit, another executes it fresh, and the bodies and the
// X-Oldend-Trace-Digest, Content-Type and Content-Length headers must be
// equal. Both come from the replica's one renderer.
func TestVerifyHitAgainstFreshPeerMatches(t *testing.T) {
	warm, fresh := newReplica(t, "shard0", fastExec), newReplica(t, "shard1", fastExec)
	if st, b, _ := postJSON(t, warm.URL+"/run", runBody); st != http.StatusOK {
		t.Fatalf("warming shard0: status %d: %s", st, b)
	}
	hst, hit, hh := postJSON(t, warm.URL+"/run", runBody)
	fst, run, fh := postJSON(t, fresh.URL+"/run", runBody)
	if hst != http.StatusOK || hh.Get("X-Oldend-Cache") != "hit" {
		t.Fatalf("shard0: status %d cache %q, want a 200 hit", hst, hh.Get("X-Oldend-Cache"))
	}
	if fst != http.StatusOK || fh.Get("X-Oldend-Cache") != "miss" {
		t.Fatalf("shard1: status %d cache %q, want a 200 miss", fst, fh.Get("X-Oldend-Cache"))
	}
	if !bytes.Equal(hit, run) {
		t.Errorf("bodies differ:\nhit   %s\nfresh %s", hit, run)
	}
	for _, k := range []string{"X-Oldend-Trace-Digest", "Content-Type", "Content-Length"} {
		if hh.Get(k) == "" || hh.Get(k) != fh.Get(k) {
			t.Errorf("%s: hit %q, fresh %q; want one non-empty value", k, hh.Get(k), fh.Get(k))
		}
	}
}

// parkingExec parks every run until released, so a test can hold the
// replica's one worker and fill its one queue slot deterministically.
type parkingExec struct {
	started chan struct{}
	release chan struct{}
}

func (p *parkingExec) fn(req server.RunRequest, sp *obs.Span) (record.RunRecord, error) {
	p.started <- struct{}{}
	<-p.release
	return fastExec(req, sp)
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSharedEnvelope drives the same request script at a replica's
// handler and at a router in front of one, and requires the one envelope
// both are wrapped in to behave identically: trace-id headers on every
// status the pipeline can answer, the <prefix>_requests_total labels, the
// access-line fields and the /debug/requests ring entry.
func TestSharedEnvelope(t *testing.T) {
	for _, row := range []struct {
		name   string
		prefix string
		router bool
	}{
		{name: "server.Handler", prefix: "oldend"},
		{name: "router.Handler", prefix: "oldenrouter", router: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			exec := &parkingExec{started: make(chan struct{}, 4), release: make(chan struct{}, 4)}
			var replicaLog, routerLog lockedBuffer
			replica := server.New(server.Config{Workers: 1, QueueDepth: 1, Execute: exec.fn,
				SampleEvery: 1, AccessLog: server.NewAccessLogger(&replicaLog)})
			ts := httptest.NewServer(replica.Handler())
			defer ts.Close()
			front, reg, log := ts, replica.Metrics(), &replicaLog
			if row.router {
				rt, err := NewRouter(Config{Replicas: []string{ts.URL}, SampleEvery: 1, AccessLog: &routerLog})
				if err != nil {
					t.Fatal(err)
				}
				front = httptest.NewServer(rt.Handler())
				defer front.Close()
				reg, log = rt.Metrics(), &routerLog
			}

			// The script: 400, then 200 (parked) / 504 / 429 around one busy
			// worker and one queue slot, then 503 once the replica drains.
			traceIDs := map[int]string{}
			post := func(want int, body string) {
				t.Helper()
				st, b, h := postJSON(t, front.URL+"/run", body)
				if st != want { // Errorf: post also runs off the test goroutine
					t.Errorf("status %d, want %d: %s", st, want, b)
				}
				tid := h.Get("X-Oldend-Trace-Id")
				if len(tid) != 32 || h.Get("X-Request-Id") != tid {
					t.Errorf("%d: X-Oldend-Trace-Id %q, X-Request-Id %q; want one 32-hex id on both", st, tid, h.Get("X-Request-Id"))
				}
				traceIDs[st] = tid
			}
			post(400, `{`)
			parked := make(chan struct{})
			go func() {
				defer close(parked)
				post(200, `{"benchmark":"treeadd","procs":1}`)
			}()
			<-exec.started
			post(504, `{"benchmark":"treeadd","procs":2,"deadline_ms":50}`) // expires in the queue slot…
			post(429, `{"benchmark":"treeadd","procs":4}`)                  // …which it still occupies
			exec.release <- struct{}{}
			<-parked
			replica.Shutdown(context.Background())
			post(503, `{"benchmark":"treeadd","procs":8}`)

			// <prefix>_requests_total{path,code}, one per status.
			snap := reg.Snapshot()
			for code := range traceIDs {
				sm, ok := snap.Get(row.prefix+"_requests_total",
					metrics.L("path", "/run"), metrics.L("code", strconv.Itoa(code)))
				if !ok || sm.Value != 1 {
					t.Errorf("%s_requests_total{path=/run,code=%d} = %d (present %v), want 1", row.prefix, code, sm.Value, ok)
				}
			}

			// One access line per request, joined to the response by trace id.
			lines := map[string]map[string]any{}
			for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
				var m map[string]any
				if err := json.Unmarshal([]byte(line), &m); err != nil {
					t.Fatalf("access line not JSON: %v: %s", err, line)
				}
				for _, k := range []string{"time", "level", "msg", "method", "path", "status", "bytes", "dur_us", "remote", "trace_id", "sampled"} {
					if _, ok := m[k]; !ok {
						t.Errorf("access line missing %q: %s", k, line)
					}
				}
				lines[m["trace_id"].(string)] = m
			}
			if len(lines) != len(traceIDs) {
				t.Errorf("%d access lines, want %d:\n%s", len(lines), len(traceIDs), log.String())
			}
			ok200 := lines[traceIDs[200]]
			for _, k := range []string{"benchmark", "key", "cache"} {
				if ok200[k] == nil {
					t.Errorf("200 line missing %q: %v", k, ok200)
				}
			}
			if row.router {
				if ok200["shard"] != ts.URL {
					t.Errorf("router's 200 line names shard %v, want %s", ok200["shard"], ts.URL)
				}
			} else {
				if ok200["shard"] != nil {
					t.Errorf("replica's line carries a shard field: %v", ok200)
				}
				if got := lines[traceIDs[429]]["shed_reason"]; got != "queue_full" {
					t.Errorf("429 line shed_reason = %v, want queue_full", got)
				}
			}

			// The /debug/requests ring holds every request of the script.
			resp, err := http.Get(front.URL + "/debug/requests")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var view struct {
				Requests []obs.ReqSummary `json:"requests"`
				Router   struct {
					Requests []obs.ReqSummary `json:"requests"`
				} `json:"router"`
			}
			if err := json.Unmarshal(body, &view); err != nil {
				t.Fatalf("/debug/requests: %v: %s", err, body)
			}
			ring := view.Requests
			if row.router {
				ring = view.Router.Requests
			}
			seen := map[string]obs.ReqSummary{}
			for _, r := range ring {
				seen[r.TraceID] = r
			}
			for code, tid := range traceIDs {
				r, ok := seen[tid]
				if !ok || r.Status != code || r.Path != "/run" || !r.Sampled {
					t.Errorf("ring entry for the %d (trace %s) = %+v (present %v)", code, tid, r, ok)
				}
			}
			if r := seen[traceIDs[200]]; r.Benchmark != "treeadd" || r.Cache != "miss" {
				t.Errorf("200 ring entry benchmark %q cache %q, want treeadd/miss", r.Benchmark, r.Cache)
			}
		})
	}
}
