package cluster

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/metric_names.golden from the current build")

// hostMap is a RoundTripper that sends each request to the test server
// registered under its URL's host, so replicas keep fixed names (and the
// ring fixed owners) whatever ports httptest picked.
type hostMap map[string]string

func (m hostMap) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.URL.Host = m[r.URL.Host]
	return http.DefaultTransport.RoundTrip(r)
}

// servedMetricNames renders one process's /metrics as sorted
// "<process> name{labels}" lines, values dropped. Of a histogram's buckets
// only le="+Inf" stays: which finite buckets exist depends on timing.
func servedMetricNames(t *testing.T, process, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		id := line[:strings.LastIndexByte(line, ' ')]
		if strings.Contains(id, "_bucket{") && !strings.Contains(id, `le="+Inf"`) {
			continue
		}
		out = append(out, process+" "+id)
	}
	return out
}

// TestServedMetricNames pins every metric id the router and its replicas
// serve after a fixed request sequence: a miss (after two probe misses), a
// probe hit, a direct replica hit, a 400, a 404, a 405 and a sharded
// /batch. Values are not pinned; an id that appears, disappears or changes
// its labels fails here (refresh with -update after a deliberate change).
func TestServedMetricNames(t *testing.T) {
	hosts := hostMap{}
	var replicas []string
	for i := 0; i < 2; i++ {
		ts := newReplica(t, fmt.Sprintf("shard%d", i), fastExec)
		name := fmt.Sprintf("replica%d", i)
		hosts[name] = ts.Listener.Addr().String()
		replicas = append(replicas, "http://"+name)
	}
	rt, err := NewRouter(Config{Replicas: replicas, ProbeOwners: 2, Client: &http.Client{Transport: hosts}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	direct := func(replica string) string { return "http://" + hosts[strings.TrimPrefix(replica, "http://")] }

	for _, c := range []struct {
		method, url, body string
		want              int
	}{
		{http.MethodPost, front.URL + "/run", runBody, 200},                                  // probe miss ×2, then a miss
		{http.MethodPost, front.URL + "/run", runBody, 200},                                  // probe hit
		{http.MethodPost, direct(rt.Ring().Owner(keyOf(t, runBody))) + "/run", runBody, 200}, // result-cache hit
		{http.MethodPost, front.URL + "/run", `{`, 400},
		{http.MethodGet, front.URL + "/nosuch", "", 404},
		{http.MethodGet, front.URL + "/run", "", 405},
		{http.MethodPost, front.URL + "/batch", `{"runs":[{"benchmark":"treeadd","procs":1},{"benchmark":"power","procs":2}]}`, 200},
	} {
		req, err := http.NewRequest(c.method, c.url, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s %s = %d, want %d", c.method, c.url, resp.StatusCode, c.want)
		}
	}

	lines := servedMetricNames(t, "router", front.URL)
	for i, replica := range replicas {
		lines = append(lines, servedMetricNames(t, fmt.Sprintf("replica%d", i), direct(replica))...)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	const path = "testdata/metric_names.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("served metric ids moved (go test ./internal/cluster -run TestServedMetricNames -update):\ngot:\n%s\nwant:\n%s", got, want)
	}
}
