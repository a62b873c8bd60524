package memnet_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	_ "repro/internal/bench/treeadd"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/perf/memnet"
)

const runBody = `{"benchmark":"treeadd","procs":2,"scale":64}`

func post(t *testing.T, h http.Handler, path, body string) *memnet.Recorder {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://client"+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rec := &memnet.Recorder{}
	h.ServeHTTP(rec, req)
	return rec
}

// oldendHeaders are the X-Oldend-* response headers that describe the
// answer. X-Oldend-Trace-Id is left out: it names the request, every
// request gets a fresh one, and the router replaces the replica's with its
// own.
var oldendHeaders = []string{"X-Oldend-Cache", "X-Oldend-Phase-Cache", "X-Oldend-Shard", "X-Oldend-Trace-Digest"}

func TestRoutedResponseIsByteIdenticalToDirect(t *testing.T) {
	newReplica := func() *server.Server {
		return server.New(server.Config{Workers: 1, ShardName: "r0", SampleEvery: -1})
	}
	direct, routed := newReplica(), newReplica()
	net := memnet.New()
	net.Handle("r0", routed.Handler())
	router, err := cluster.NewRouter(cluster.Config{
		Replicas:    []string{"http://r0"},
		SampleEvery: -1,
		Client:      &http.Client{Transport: net},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Twice: the first answer is a simulated run, the second a result-cache
	// hit, and both must survive the hop unchanged.
	for _, want := range []string{"miss", "hit"} {
		d := post(t, direct.Handler(), "/run", runBody)
		r := post(t, router.Handler(), "/run", runBody)
		if d.Status() != http.StatusOK || r.Status() != http.StatusOK {
			t.Fatalf("status direct %d routed %d: %s", d.Status(), r.Status(), r.Body)
		}
		if !bytes.Equal(d.Body, r.Body) {
			t.Fatalf("%s: routed body differs from direct body", want)
		}
		for _, h := range oldendHeaders {
			if d.Header().Get(h) != r.Header().Get(h) {
				t.Errorf("%s: header %s direct %q routed %q", want, h, d.Header().Get(h), r.Header().Get(h))
			}
		}
		if got := r.Header().Get("X-Oldend-Cache"); got != want {
			t.Errorf("X-Oldend-Cache %q; want %q", got, want)
		}
	}
	if got := net.Trips("r0"); got != 2 {
		t.Errorf("%d trips to r0; want 2", got)
	}
}

func TestTransportContract(t *testing.T) {
	net := memnet.New()
	net.Handle("echo", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Len", http.StatusText(http.StatusTeapot))
		w.WriteHeader(http.StatusTeapot)
		w.Write(b)
	}))
	client := &http.Client{Transport: net}
	// The pooled body buffer is reused: a second, shorter response must
	// not show the tail of the first.
	for _, msg := range []string{"a long first message", "short"} {
		resp, err := client.Post("http://echo/x", "text/plain", strings.NewReader(msg))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTeapot || string(got) != msg || resp.Header.Get("X-Len") == "" {
			t.Fatalf("got %d %q %v; want 418 %q", resp.StatusCode, got, resp.Header, msg)
		}
	}
	// A GET has no body on the client side; the handler still gets one.
	resp, err := client.Get("http://echo/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := client.Get("http://nowhere/x"); err == nil {
		t.Fatal("unknown host: want a transport error")
	}
}
