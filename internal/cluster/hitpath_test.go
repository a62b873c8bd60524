package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// handlerTransport delivers every request to one in-process handler on
// the caller's goroutine, so a response header reaches the router exactly
// as the replica wrote it: no wire format canonicalises its keys.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
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
		Client:    &http.Client{Transport: handlerTransport{replica.Handler()}},
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
	const maxAllocs = 84
	if raceDetectorEnabled {
		return
	}
	if n := testing.AllocsPerRun(200, func() { serveRun(h, runBody) }); n > maxAllocs {
		t.Errorf("a routed hit allocates %v times, over the %d this path was measured at", n, maxAllocs)
	}
}

// TestUnsampledRoutedRequestJoinsOnTraceID: a client that sends no
// traceparent still gets one trace id across the hop — the router's and
// the replica's access lines for the request name the same trace_id.
func TestUnsampledRoutedRequestJoinsOnTraceID(t *testing.T) {
	var replicaLog, routerLog lockedBuffer
	rec := serveRun(inProcessRouter(t, &replicaLog, &routerLog), runBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	tid := rec.Header().Get("X-Oldend-Trace-Id")
	for name, log := range map[string]*lockedBuffer{"router": &routerLog, "replica": &replicaLog} {
		var line struct {
			TraceID string `json:"trace_id"`
			Sampled bool   `json:"sampled"`
		}
		if err := json.Unmarshal([]byte(log.String()), &line); err != nil {
			t.Fatalf("%s access log: %v: %s", name, err, log.String())
		}
		if line.TraceID != tid || line.Sampled {
			t.Errorf("%s access line trace_id %q (sampled %v), want %q unsampled", name, line.TraceID, line.Sampled, tid)
		}
	}
}
