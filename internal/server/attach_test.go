package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
)

// heldBench is a benchmark whose kernel records a few simulated events,
// then blocks until the test releases it: a sampled run held mid-kernel.
const heldBench = "server-test-held-kernel"

var heldEntered, heldRelease = make(chan struct{}), make(chan struct{})

func init() {
	bench.Register(bench.Info{Name: heldBench, Phased: &bench.Phased{
		Build: func(bench.Config, *rt.Runtime) any { return nil },
		Kernel: func(_ bench.Config, r *rt.Runtime, _ any) bench.Result {
			r.Run(0, func(th *rt.Thread) {
				rt.Spawn(th, func(c *rt.Thread) int { c.Work(10); return 0 }).Touch(th)
			})
			heldEntered <- struct{}{}
			<-heldRelease
			return bench.Result{}
		},
	}})
}

// TestSimAttachedWhenRunReturns: a sampled run's recorder takes no lock, so
// it joins the span only once the run has returned. While the kernel is
// held, /debug/trace/<id> serves the request's service spans and no
// simulated-processor track, and the tree view counts no simulation
// events; after the run, both are there.
func TestSimAttachedWhenRunReturns(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	status := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(`{"benchmark":"`+heldBench+`","procs":2}`))
		req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
		resp, err := ts.Client().Do(req)
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-heldEntered:
	case st := <-status:
		t.Fatalf("run answered %d before its kernel was held", st)
	case <-time.After(30 * time.Second):
		t.Fatal("the kernel never started")
	}

	// views returns the simulated-processor events of the Chrome export
	// (every pid but the service's) and the tree view's sim_events.
	views := func() (simPIDEvents, simEvents int) {
		t.Helper()
		st, body := getBody(t, ts, "/debug/trace/"+tid)
		if st != http.StatusOK {
			t.Errorf("/debug/trace = %d: %s", st, body)
			return
		}
		stats, err := trace.ValidateChrome(bytes.NewReader(body))
		if err != nil {
			t.Errorf("trace invalid: %v", err)
			return
		}
		if stats.ByPid[1000] == 0 {
			t.Error("no service spans (pid 1000)")
		}
		for pid, n := range stats.ByPid {
			if pid != 1000 {
				simPIDEvents += n
			}
		}
		st, body = getBody(t, ts, "/debug/trace/"+tid+"?format=tree")
		var tree obs.TraceTree
		if err := json.Unmarshal(body, &tree); st != http.StatusOK || err != nil {
			t.Errorf("tree view = %d, %v: %s", st, err, body)
		}
		return simPIDEvents, tree.SimEvents
	}

	if pidEvents, events := views(); pidEvents != 0 || events != 0 {
		t.Errorf("held run: %d simulated-processor events, sim_events %d; want none before the run returns", pidEvents, events)
	}
	heldRelease <- struct{}{}
	if st := <-status; st != http.StatusOK {
		t.Fatalf("run = %d", st)
	}
	if pidEvents, events := views(); pidEvents == 0 || events == 0 {
		t.Errorf("finished run: %d simulated-processor events, sim_events %d; want both", pidEvents, events)
	}
}
