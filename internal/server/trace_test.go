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
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// postRunHdr posts a /run body with extra request headers and returns
// status, body and response headers.
func postRunHdr(t *testing.T, ts *httptest.Server, body string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestTraceIDHeaderOnEveryResponse pins the contract that every
// response — success, client error, shed — carries X-Oldend-Trace-Id
// and X-Request-Id, so any failure a client sees can be quoted back at
// the introspection endpoints.
func TestTraceIDHeaderOnEveryResponse(t *testing.T) {
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 1, Execute: exec.fn, SampleEvery: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(label string, h http.Header) {
		t.Helper()
		tid := h.Get("X-Oldend-Trace-Id")
		if len(tid) != 32 {
			t.Errorf("%s: X-Oldend-Trace-Id = %q, want 32 hex chars", label, tid)
		}
		if h.Get("X-Request-Id") != tid {
			t.Errorf("%s: X-Request-Id = %q != trace id %q", label, h.Get("X-Request-Id"), tid)
		}
	}

	// 400: malformed body still gets an id.
	_, _, h := postRunHdr(t, ts, `{`, nil)
	check("400", h)

	// Park the worker; the next request waits in the one queue slot until
	// its 50ms deadline fires → 504.
	st1, _, h1 := postRunAsync(t, ts, `{"benchmark":"treeadd","procs":1}`)
	<-exec.started
	st504, _, h504 := postRunHdr(t, ts, `{"benchmark":"treeadd","procs":8,"deadline_ms":50}`, nil)
	if st504 != http.StatusGatewayTimeout {
		t.Fatalf("expected 504, got %d", st504)
	}
	check("504", h504)

	// The expired job still occupies the queue slot (the worker is
	// parked), so the next admission sheds → 429.
	stShed, _, hShed := postRunHdr(t, ts, `{"benchmark":"treeadd","procs":4}`, nil)
	if stShed != http.StatusTooManyRequests {
		t.Fatalf("expected 429 shed, got %d", stShed)
	}
	check("429", hShed)

	exec.release <- struct{}{} // the expired job is discarded without executing
	if st := <-st1; st != 200 {
		t.Fatalf("parked run = %d", st)
	}
	check("200", <-h1)
}

// postRunAsync fires a /run in the background, returning channels for
// status and headers.
func postRunAsync(t *testing.T, ts *httptest.Server, body string) (<-chan int, <-chan []byte, <-chan http.Header) {
	t.Helper()
	stc := make(chan int, 1)
	bc := make(chan []byte, 1)
	hc := make(chan http.Header, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			stc <- -1
			bc <- nil
			hc <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		stc <- resp.StatusCode
		bc <- b
		hc <- resp.Header
	}()
	return stc, bc, hc
}

// TestSampledRunMergedChromeTrace drives a real treeadd run with an
// upstream sampled traceparent and asserts the whole observability
// chain: the response advertises the upstream trace id, /debug/requests
// lists it, and /debug/trace/<id> serves ONE valid Chrome trace holding
// both service spans (pid 1000) and simulated cache events (sim pids) —
// the tentpole's merged export.
func TestSampledRunMergedChromeTrace(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8}) // SampleEvery 0: sample only on upstream ask
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const upstream = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	st, _, h := postRunHdr(t, ts, `{"benchmark":"treeadd","procs":2,"scale":16}`,
		map[string]string{"traceparent": upstream})
	if st != 200 {
		t.Fatalf("sampled run = %d", st)
	}
	tid := h.Get("X-Oldend-Trace-Id")
	if tid != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace id = %q, want the upstream id propagated", tid)
	}

	// /debug/requests lists the finished request, slowest-first.
	stReq, body := getBody(t, ts, "/debug/requests")
	if stReq != 200 {
		t.Fatalf("/debug/requests = %d", stReq)
	}
	var dbg struct {
		InFlight int              `json:"in_flight"`
		Requests []obs.ReqSummary `json:"requests"`
	}
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatalf("/debug/requests not JSON: %v\n%s", err, body)
	}
	var found *obs.ReqSummary
	for i := range dbg.Requests {
		if dbg.Requests[i].TraceID == tid {
			found = &dbg.Requests[i]
		}
	}
	if found == nil {
		t.Fatalf("trace %s not in /debug/requests: %s", tid, body)
	}
	if !found.Sampled || found.Path != "/run" || found.Status != 200 {
		t.Fatalf("summary wrong: %+v", *found)
	}
	if found.Dominant == "" {
		t.Fatalf("sampled summary missing dominant span: %+v", *found)
	}

	// The merged Chrome export: service spans AND sim events in one file.
	stTr, chromeBody := getBody(t, ts, "/debug/trace/"+tid)
	if stTr != 200 {
		t.Fatalf("/debug/trace = %d: %s", stTr, chromeBody)
	}
	stats, err := trace.ValidateChrome(bytes.NewReader(chromeBody))
	if err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if stats.ByPid[1000] < 4 {
		t.Fatalf("service spans (pid 1000) = %d, want >= 4 (root, probe, queue, execute)", stats.ByPid[1000])
	}
	simEvents := 0
	for pid, n := range stats.ByPid {
		if pid != 1000 {
			simEvents += n
		}
	}
	if simEvents == 0 {
		t.Fatal("merged trace has no simulated events — the sim recorder was not attached")
	}
	if stats.ByCat["service"] == 0 {
		t.Fatal("no events categorized 'service'")
	}

	// The tree view: execute has phase children and simulated cycles.
	stTree, treeBody := getBody(t, ts, "/debug/trace/"+tid+"?format=tree")
	if stTree != 200 {
		t.Fatalf("tree view = %d", stTree)
	}
	var tree obs.TraceTree
	if err := json.Unmarshal(treeBody, &tree); err != nil {
		t.Fatal(err)
	}
	if tree.TraceID != tid || tree.SimEvents == 0 {
		t.Fatalf("tree = trace_id %q sim_events %d, want %q and > 0", tree.TraceID, tree.SimEvents, tid)
	}
	names := map[string]bool{}
	var walk func(st obs.SpanTree)
	walk = func(st obs.SpanTree) {
		names[st.Name] = true
		for _, c := range st.Children {
			walk(c)
		}
	}
	walk(tree.Root)
	for _, want := range []string{"cache_probe", "queue_wait", "execute", "phase:kernel", "serialize"} {
		if !names[want] {
			t.Errorf("span %q missing from tree; have %v", want, names)
		}
	}

	// Unsampled request: no traceparent, SampleEvery -1 → not retained.
	st2, _, h2 := postRunHdr(t, ts, `{"benchmark":"treeadd","procs":2,"scale":16,"no_cache":true}`, nil)
	if st2 != 200 {
		t.Fatalf("unsampled run = %d", st2)
	}
	if st404, _ := getBody(t, ts, "/debug/trace/"+h2.Get("X-Oldend-Trace-Id")); st404 != http.StatusNotFound {
		t.Fatalf("unsampled trace lookup = %d, want 404", st404)
	}
}

// TestDeadline504TraceComplete pins satellite 4's second half: a job
// that dies in the queue still produces a complete, retained span tree —
// root finished normally, queue_wait flushed with the aborted attribute.
func TestDeadline504TraceComplete(t *testing.T) {
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn, SampleEvery: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park the worker, then time a second request out in the queue.
	st1, _, _ := postRunAsync(t, ts, `{"benchmark":"treeadd","procs":1}`)
	<-exec.started
	st, _, h := postRunHdr(t, ts, `{"benchmark":"treeadd","procs":2,"deadline_ms":50}`, nil)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("queued run = %d, want 504", st)
	}
	tid := h.Get("X-Oldend-Trace-Id")

	stTree, body := getBody(t, ts, "/debug/trace/"+tid+"?format=tree")
	if stTree != 200 {
		t.Fatalf("504 trace not retained: %d", stTree)
	}
	var tree obs.TraceTree
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatal(err)
	}
	var qw *obs.SpanTree
	for i := range tree.Root.Children {
		if tree.Root.Children[i].Name == "queue_wait" {
			qw = &tree.Root.Children[i]
		}
	}
	if qw == nil {
		t.Fatalf("504 tree has no queue_wait child: %s", body)
	}
	aborted := false
	for _, a := range qw.Attrs {
		if a.Key == "aborted" && a.Value == "true" {
			aborted = true
		}
	}
	if !aborted {
		t.Fatalf("queue_wait not flushed as aborted: %+v", qw.Attrs)
	}
	// Root itself finished normally (no aborted attr).
	for _, a := range tree.Root.Attrs {
		if a.Key == "aborted" {
			t.Fatalf("root span wrongly aborted: %+v", tree.Root.Attrs)
		}
	}

	exec.release <- struct{}{}
	exec.release <- struct{}{}
	if got := <-st1; got != 200 {
		t.Fatalf("parked run = %d", got)
	}
}

// TestDrainFlushesInflightSpans pins satellite 4's first half: Shutdown
// aborts in-flight sampled requests into the finished ring, marked
// aborted_at_drain, so a drain leaves no invisible requests behind.
func TestDrainFlushesInflightSpans(t *testing.T) {
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn, SampleEvery: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stc, _, _ := postRunAsync(t, ts, `{"benchmark":"treeadd","procs":1}`)
	<-exec.started

	// Shutdown with an expired context: drain can't finish (the worker is
	// parked), so AbortInflight must sweep the live request.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)

	var drained *obs.ReqSummary
	for _, r := range s.Tracer().Requests() {
		if r.ShedReason == "aborted_at_drain" {
			rr := r
			drained = &rr
		}
	}
	if drained == nil {
		t.Fatalf("no aborted_at_drain summary after Shutdown: %+v", s.Tracer().Requests())
	}
	if drained.Path != "/run" || !drained.Sampled {
		t.Fatalf("drained summary wrong: %+v", *drained)
	}

	exec.release <- struct{}{}
	<-stc
}

// TestTraceCapacityDropsSurfaced pins drop reporting end to end at the
// server layer: barneshut at P=4, scale 16 emits ~1.07 M events into the
// default 2^18-event ring, and the drop count shows up in the
// oldend_trace_dropped_total counter, the Chrome export's trace_dropped
// metadata, and the tree's sim_dropped.
//
// Sampling must not change the answer: a sampled run records into that
// ring and an unsampled one into a one-chunk ring, and the digest covers
// every event whatever the ring held, so the same request to a replica
// that samples every request and to one with tracing disabled returns
// identical bytes and an identical digest — the property the shared
// result cache and the cross-replica determinism check both rest on.
func TestTraceCapacityDropsSurfaced(t *testing.T) {
	const body = `{"benchmark":"barneshut","procs":4,"scale":16}`
	s := New(Config{Workers: 1, QueueDepth: 4, SampleEvery: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, sampled, h := postRunHdr(t, ts, body, nil)
	if st != 200 {
		t.Fatalf("run = %d", st)
	}
	tid := h.Get("X-Oldend-Trace-Id")

	if got := counterValue(t, s.Metrics(), "oldend_trace_dropped_total"); got == 0 {
		t.Fatal("oldend_trace_dropped_total = 0 after overflowing the default ring")
	}
	_, chromeBody := getBody(t, ts, "/debug/trace/"+tid)
	stats, err := trace.ValidateChrome(bytes.NewReader(chromeBody))
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedEvents == 0 {
		t.Fatal("Chrome export missing trace_dropped metadata")
	}
	_, treeBody := getBody(t, ts, "/debug/trace/"+tid+"?format=tree")
	var tree obs.TraceTree
	if err := json.Unmarshal(treeBody, &tree); err != nil {
		t.Fatal(err)
	}
	if tree.SimDropped == 0 {
		t.Fatal("tree view missing sim_dropped")
	}

	u := New(Config{Workers: 1, QueueDepth: 4, SampleEvery: -1})
	defer u.Shutdown(context.Background())
	us := httptest.NewServer(u.Handler())
	defer us.Close()
	st, unsampled, uh := postRunHdr(t, us, body, nil)
	if st != 200 {
		t.Fatalf("unsampled run = %d", st)
	}
	if got, want := uh.Get("X-Oldend-Trace-Digest"), h.Get("X-Oldend-Trace-Digest"); got != want || want == "" {
		t.Errorf("digest: unsampled %q, sampled %q", got, want)
	}
	if !bytes.Equal(sampled, unsampled) {
		t.Error("sampled and unsampled replicas returned different bytes for the same request")
	}
}

// TestAccessLogCarriesTraceAndShed extends the log-shape golden: shed
// responses log shed_reason and every line logs the same trace_id the
// response advertised — logs, metrics and traces join on one key.
func TestAccessLogCarriesTraceAndShed(t *testing.T) {
	var buf syncBuffer
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 1, Execute: exec.fn, SampleEvery: 1,
		AccessLog: NewAccessLogger(&buf)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stc, _, _ := postRunAsync(t, ts, `{"benchmark":"treeadd","procs":1}`)
	<-exec.started
	st2, _, _ := postRunAsync(t, ts, `{"benchmark":"treeadd","procs":2}`)
	// The probe may race req2 for the queue slot; a short deadline makes
	// a wrongly-queued probe 504 quickly, and the expired job it leaves
	// behind keeps the queue full for the next attempt.
	var hShed http.Header
	deadline := time.Now().Add(10 * time.Second)
	for {
		var stS int
		stS, _, hShed = postRunHdr(t, ts, `{"benchmark":"treeadd","procs":4,"deadline_ms":200}`, nil)
		if stS == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never shed")
		}
	}
	exec.release <- struct{}{}
	exec.release <- struct{}{}
	<-stc
	<-st2

	wantTID := hShed.Get("X-Oldend-Trace-Id")
	var shedLine map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line not JSON: %v: %s", err, line)
		}
		for _, k := range []string{"time", "level", "msg", "method", "path", "status", "trace_id", "dur_us"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("log line missing %q: %s", k, line)
			}
		}
		if m["trace_id"] == wantTID && m["shed_reason"] == "queue_full" {
			shedLine = m
		}
	}
	if shedLine == nil {
		t.Fatalf("no shed log line with trace_id=%s shed_reason=queue_full:\n%s", wantTID, buf.String())
	}
	if shedLine["status"] != float64(http.StatusTooManyRequests) {
		t.Fatalf("shed line status = %v", shedLine["status"])
	}
}
