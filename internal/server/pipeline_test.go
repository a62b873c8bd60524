package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// answer is what one run configuration came back as, read off a /run
// response or off the single item of a one-item /batch.
type answer struct {
	status int
	cache  string
	phase  string
	record string // compacted RunRecord JSON (200 only)
	errMsg string // non-200 only
}

func compactJSON(t *testing.T, b []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("not JSON: %v: %s", err, b)
	}
	return buf.String()
}

func askRun(t *testing.T, ts *httptest.Server, cfg string) answer {
	t.Helper()
	status, body, h := postRun(t, ts, cfg)
	a := answer{status: status, cache: h.Get("X-Oldend-Cache"), phase: h.Get("X-Oldend-Phase-Cache")}
	if status == http.StatusOK {
		a.record = compactJSON(t, body)
		return a
	}
	var e struct{ Error string }
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body not JSON: %s", body)
	}
	a.errMsg = e.Error
	return a
}

func askBatch(t *testing.T, ts *httptest.Server, cfg string) answer {
	t.Helper()
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"runs":[`+cfg+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var items []BatchItem
	if err := json.Unmarshal(body, &items); err != nil || len(items) != 1 {
		t.Fatalf("one-item batch answered %d: %s", resp.StatusCode, body)
	}
	it := items[0]
	a := answer{status: it.Status, phase: it.PhaseCache, errMsg: it.Error}
	if it.Status == http.StatusOK {
		// X-Oldend-Cache exists on 200s only, so that is where the two
		// paths are comparable.
		a.cache = it.Cache
		a.record = compactJSON(t, it.Record)
	}
	return a
}

// TestRunAndOneItemBatchAgree pins the single pipeline from the replica's
// two entrances: the same configuration sent as /run and as a one-item
// /batch must come back with the same status, cache and phase disposition,
// record bytes and error text, for every outcome the pipeline can produce.
func TestRunAndOneItemBatchAgree(t *testing.T) {
	const cfg = `{"benchmark":"treeadd","procs":2,"scale":64`
	// parkWorker occupies the only worker and returns the release hook.
	parkWorker := func(t *testing.T, ts *httptest.Server, exec *blockingExec) func() {
		parked := asyncRun(t, ts, `{"benchmark":"treeadd","procs":1}`)
		waitStarted(t, exec)
		return func() {
			exec.release <- struct{}{}
			<-parked
		}
	}
	// warm runs the base configuration once, so the case starts from a
	// populated result cache and phase cache.
	warm := func(t *testing.T, _ *Server, ts *httptest.Server, _ *blockingExec) func() {
		postRun(t, ts, cfg+`}`)
		return nil
	}
	blocking := func() (ExecuteFunc, *blockingExec) { b := newBlockingExec(); return b.fn, b }
	for _, tc := range []struct {
		name       string
		exec       func() (ExecuteFunc, *blockingExec) // nil: the real benchmark executor
		setup      func(t *testing.T, s *Server, ts *httptest.Server, exec *blockingExec) (teardown func())
		body       string
		wantStatus int
		wantCache  string
		wantPhase  string
	}{
		{name: "miss", body: cfg + `}`, wantStatus: 200, wantCache: "miss", wantPhase: "miss"},
		{name: "hit", body: cfg + `}`, wantStatus: 200, wantCache: "hit",
			setup: warm},
		{name: "phase-hit", body: cfg + `,"scheme":"global"}`, wantStatus: 200, wantCache: "miss", wantPhase: "hit",
			setup: warm},
		{name: "bypass", body: cfg + `,"no_cache":true}`, wantStatus: 200, wantCache: "bypass", wantPhase: "miss"},
		{name: "verify-match", body: cfg + `,"verify":true}`, wantStatus: 200, wantCache: "verify", wantPhase: "hit",
			setup: warm},
		{name: "verify-mismatch", body: cfg + `,"verify":true}`, wantStatus: 500,
			exec: func() (ExecuteFunc, *blockingExec) {
				return (&instantExec{digests: []string{"d1", "DIVERGED"}}).fn, nil
			},
			setup: warm},
		{name: "invalid", body: `{"benchmark":"no-such-bench"}`, wantStatus: 400},
		{name: "shed", body: cfg + `}`, wantStatus: 429,
			exec: blocking,
			setup: func(t *testing.T, s *Server, ts *httptest.Server, exec *blockingExec) func() {
				release := parkWorker(t, ts, exec)
				queued := asyncRun(t, ts, `{"benchmark":"treeadd","procs":3}`)
				waitQueueDepth(t, s, 1) // the one queue slot is taken
				return func() {
					release()
					exec.release <- struct{}{}
					<-queued
				}
			}},
		{name: "draining", body: cfg + `}`, wantStatus: 503,
			exec: blocking,
			setup: func(t *testing.T, s *Server, ts *httptest.Server, exec *blockingExec) func() {
				go s.Shutdown(context.Background())
				waitDraining(t, s)
				return nil
			}},
		{name: "deadline", body: cfg + `,"deadline_ms":50}`, wantStatus: 504,
			exec: blocking,
			setup: func(t *testing.T, _ *Server, ts *httptest.Server, exec *blockingExec) func() {
				return parkWorker(t, ts, exec)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ask := func(via func(*testing.T, *httptest.Server, string) answer) answer {
				cfg := Config{Workers: 1, QueueDepth: 1}
				var parked *blockingExec
				if tc.exec != nil {
					cfg.Execute, parked = tc.exec()
				}
				s := New(cfg)
				defer s.Shutdown(context.Background())
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				if tc.setup != nil {
					if teardown := tc.setup(t, s, ts, parked); teardown != nil {
						defer teardown()
					}
				}
				return via(t, ts, tc.body)
			}
			run, batch := ask(askRun), ask(askBatch)
			if run != batch {
				t.Errorf("/run and one-item /batch disagree:\n run   %+v\n batch %+v", run, batch)
			}
			if run.status != tc.wantStatus || run.cache != tc.wantCache || run.phase != tc.wantPhase {
				t.Errorf("got status %d cache %q phase %q; want %d %q %q (%s)",
					run.status, run.cache, run.phase, tc.wantStatus, tc.wantCache, tc.wantPhase, run.errMsg)
			}
			if (run.status == http.StatusOK) == (run.record == "") || (run.status != http.StatusOK) == (run.errMsg == "") {
				t.Errorf("answer carries the wrong payload for its status: %+v", run)
			}
		})
	}
}
