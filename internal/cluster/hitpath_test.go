package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench/record"
	"repro/internal/obs"
	"repro/internal/server"
)

// handlerTransport delivers every request to the in-process handler of
// its URL's host on the caller's goroutine, so a response header reaches
// the router exactly as the replica wrote it: no wire format canonicalises
// its keys. A reply's length is what its Content-Length header declares,
// as on a socket (TestSocketRepliesDeclareLength).
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t[r.URL.Host].ServeHTTP(rec, r)
	return rec.Result(), nil
}

// inProcessRouter is a router in front of one replica ("shard0") over
// handlerTransport; either access log may be nil.
func inProcessRouter(t *testing.T, replicaLog, routerLog io.Writer) http.Handler {
	t.Helper()
	cfg := server.Config{Workers: 1, QueueDepth: 4, CacheEntries: 8, ShardName: "shard0", Execute: fastExec}
	if replicaLog != nil {
		cfg.AccessLog = server.NewAccessLogger(replicaLog)
	}
	replica := server.New(cfg)
	rt, err := NewRouter(Config{
		Replicas:  []string{"http://replica"},
		AccessLog: routerLog,
		Client:    &http.Client{Transport: handlerTransport{"replica": replica.Handler()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt.Handler()
}

func serveRun(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
	return rec
}

// TestRoutedHitHeaders pins what a routed result-cache hit answers with:
// every header key canonical (an in-process transport would pass a
// non-canonical one through, and Header.Get would miss it), its header
// names and values, trace ids aside, and an allocation ceiling for the
// whole router → replica exchange.
func TestRoutedHitHeaders(t *testing.T) {
	h := inProcessRouter(t, nil, nil)
	if rec := serveRun(h, runBody); rec.Code != http.StatusOK {
		t.Fatalf("first run: %d %s", rec.Code, rec.Body)
	}
	rec := serveRun(h, runBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat run: %d %s", rec.Code, rec.Body)
	}
	got := map[string]string{}
	for k, vs := range rec.Header() {
		if k != http.CanonicalHeaderKey(k) {
			t.Errorf("header key %q is not canonical (%q)", k, http.CanonicalHeaderKey(k))
		}
		got[k] = strings.Join(vs, ",")
	}
	tid := got["X-Oldend-Trace-Id"]
	if len(tid) != 32 || got["X-Request-Id"] != tid {
		t.Errorf("X-Oldend-Trace-Id %q, X-Request-Id %q; want one 32-hex id on both", tid, got["X-Request-Id"])
	}
	delete(got, "X-Oldend-Trace-Id")
	delete(got, "X-Request-Id")
	want := map[string]string{
		"Content-Type":          "application/json",
		"X-Oldend-Cache":        "hit",
		"X-Oldend-Shard":        "shard0",
		"X-Oldend-Trace-Digest": "digest-" + keyOf(t, runBody),
	}
	if len(got) != len(want) {
		t.Errorf("headers %v, want %v plus the trace ids", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %q, want %q", k, got[k], v)
		}
	}

	// As measured with this harness on go1.24, linux/amd64.
	const maxAllocs = 49
	if raceDetectorEnabled {
		return
	}
	if n := testing.AllocsPerRun(200, func() { serveRun(h, runBody) }); n > maxAllocs {
		t.Errorf("a routed hit allocates %v times, over the %d this path was measured at", n, maxAllocs)
	}
}

// TestUnsampledRoutedRequestJoinsOnTraceID: a client that sends no
// traceparent, or one that does not parse, still gets one trace id across
// the hop — the router's and the replica's access lines for the request
// name the same trace_id.
func TestUnsampledRoutedRequestJoinsOnTraceID(t *testing.T) {
	for _, tp := range []string{"", "garbage", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-00"} {
		var replicaLog, routerLog lockedBuffer
		req := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(runBody))
		if tp != "" {
			req.Header.Set("Traceparent", tp)
		}
		rec := httptest.NewRecorder()
		inProcessRouter(t, &replicaLog, &routerLog).ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("traceparent %q: run: %d %s", tp, rec.Code, rec.Body)
		}
		tid := rec.Header().Get("X-Oldend-Trace-Id")
		for name, log := range map[string]*lockedBuffer{"router": &routerLog, "replica": &replicaLog} {
			var line struct {
				TraceID string `json:"trace_id"`
				Sampled bool   `json:"sampled"`
			}
			if err := json.Unmarshal([]byte(log.String()), &line); err != nil {
				t.Fatalf("traceparent %q: %s access log: %v: %s", tp, name, err, log.String())
			}
			if line.TraceID != tid || line.Sampled {
				t.Errorf("traceparent %q: %s access line trace_id %q (sampled %v), want %q unsampled", tp, name, line.TraceID, line.Sampled, tid)
			}
		}
	}
}

// slowClient yields before it copies each Write, as a client whose socket
// is full would block there.
type slowClient struct{ *httptest.ResponseRecorder }

func (c slowClient) Write(b []byte) (int, error) {
	runtime.Gosched()
	return c.ResponseRecorder.Write(b)
}

// hitHeaders renders a routed answer's headers, trace ids aside, with the
// cache disposition a hit carries.
func hitHeaders(h http.Header) string {
	h = h.Clone()
	h.Del("X-Request-Id")
	h.Del("X-Oldend-Trace-Id")
	h.Set("X-Oldend-Cache", "hit")
	var b strings.Builder
	h.Write(&b)
	return b.String()
}

// TestPooledRepliesNeverLeak: a served /run reply's buffer goes back to
// the pool only once the client has its bytes, and the header values a
// cache entry shares between its responses are never written in place.
// Eight clients send 200 routed hits each over six keys whose records
// differ in length, through a router in front of two replicas, and every
// answer must equal its key's cold answer byte for byte, headers (trace
// ids aside) included. A buffer recycled early is refilled by another
// request while its owner's client yields inside Write.
func TestPooledRepliesNeverLeak(t *testing.T) {
	tr := handlerTransport{}
	var replicas []string
	for i := 0; i < 2; i++ {
		host := fmt.Sprintf("replica%d", i)
		srv := server.New(server.Config{Workers: 1, QueueDepth: 8, CacheEntries: 16, ShardName: host, Execute: fastExec})
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		tr[host] = srv.Handler()
		replicas = append(replicas, "http://"+host)
	}
	rt, err := NewRouter(Config{Replicas: replicas, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	var bodies, coldHeaders []string
	var cold [][]byte
	lengths := map[int]bool{}
	for b, procs := range map[string]int{"treeadd": 1, "power": 2, "tsp": 3, "mst": 40, "bisort": 5, "voronoi": 60} {
		body := fmt.Sprintf(`{"benchmark":%q,"procs":%d,"scale":64}`, b, procs)
		rec := serveRun(h, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("cold %s: %d %s", body, rec.Code, rec.Body)
		}
		bodies, cold = append(bodies, body), append(cold, rec.Body.Bytes())
		coldHeaders = append(coldHeaders, hitHeaders(rec.Header()))
		lengths[rec.Body.Len()] = true
	}
	if len(lengths) != len(cold) {
		t.Fatalf("the %d cold records have only %d distinct lengths", len(cold), len(lengths))
	}
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(bodies)
				rec := httptest.NewRecorder()
				h.ServeHTTP(slowClient{rec}, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(bodies[k])))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), cold[k]) || rec.Header().Get("X-Oldend-Cache") != "hit" {
					if wrong.Add(1) == 1 {
						t.Errorf("hit on %s: %d %q, want the cold answer %q", bodies[k], rec.Code, rec.Body, cold[k])
					}
				} else if got := hitHeaders(rec.Header()); got != coldHeaders[k] {
					if wrong.Add(1) == 1 {
						t.Errorf("hit on %s: headers\n%s\nwant the cold answer's\n%s", bodies[k], got, coldHeaders[k])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := wrong.Load(); n > 0 {
		t.Errorf("%d of 1600 routed hits did not equal their key's cold answer", n)
	}
}

// roundTripFunc is a RoundTripper made of one function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestShortReplyIsRetried: a reply that ends before its declared
// Content-Length is a failed exchange, as a dropped connection would be:
// the replica is marked down and the next owner tried. It is never served
// as a 200 whose tail is whatever the buffer held.
func TestShortReplyIsRetried(t *testing.T) {
	var runs atomic.Int64
	short := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		runs.Add(1)
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, ContentLength: 64,
			Body: io.NopCloser(strings.NewReader(`{"cut":`))}, nil
	})
	rt, err := NewRouter(Config{Replicas: []string{"http://a", "http://b"}, Client: &http.Client{Transport: short}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := serveRun(rt.Handler(), runBody); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("both owners cut their reply short: %d %q, want 503", rec.Code, rec.Body)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("%d exchanges, want 2 (a short reply is retried on the next owner)", n)
	}
	for _, name := range rt.names {
		if rt.alive(rt.shards[name]) {
			t.Errorf("shard %s still up after a short reply", name)
		}
	}
}

// lengthsSeen is a socket transport that records the Content-Length of
// every /run reply the router reads.
type lengthsSeen struct {
	mu sync.Mutex
	n  []int64
}

func (l *lengthsSeen) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && r.URL.Path == "/run" {
		l.mu.Lock()
		l.n = append(l.n, resp.ContentLength)
		l.mu.Unlock()
	}
	return resp, err
}

// TestSocketRepliesDeclareLength: over real sockets, a replica's /run
// record longer than net/http's 2 KiB response buffer (which chunks a
// longer body that declares no length) still arrives with its
// Content-Length, so the router reads it into a pooled buffer. Both routed
// answers equal the replica's direct one.
func TestSocketRepliesDeclareLength(t *testing.T) {
	bigExec := func(req server.RunRequest, sp *obs.Span) (record.RunRecord, error) {
		rec, err := fastExec(req, sp)
		rec.Metrics = map[string]int64{}
		for i := 0; i < 300; i++ {
			rec.Metrics[fmt.Sprintf("metric_%03d", i)] = int64(i)
		}
		return rec, err
	}
	replica := newReplica(t, "shard0", bigExec)
	seen := &lengthsSeen{}
	rt, err := NewRouter(Config{Replicas: []string{replica.URL}, Client: &http.Client{Transport: seen}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	_, direct, _ := postJSON(t, replica.URL+"/run", runBody)
	if len(direct) <= 2048 {
		t.Fatalf("the record is %d bytes; the test needs one over 2 KiB", len(direct))
	}
	for i := 0; i < 2; i++ {
		if st, b, _ := postJSON(t, front.URL+"/run", runBody); st != http.StatusOK || !bytes.Equal(b, direct) {
			t.Errorf("routed run %d: %d, %d bytes; want 200 and the %d direct bytes", i, st, len(b), len(direct))
		}
	}
	for i, n := range seen.n {
		if n != int64(len(direct)) {
			t.Errorf("routed /run reply %d arrived with ContentLength %d, want %d", i, n, len(direct))
		}
	}
	if len(seen.n) != 2 {
		t.Errorf("%d /run replies crossed the socket, want 2", len(seen.n))
	}
}
