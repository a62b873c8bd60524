package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/trace"
)

// buildSampledRequest assembles the span tree the server produces for a
// sampled /run that executed in the simulator, with nEvents simulation
// events recorded into a ring of capacity cap.
func buildSampledRequest(t *testing.T, clk *fakeClock, tr *Tracer, ringCap, nEvents int) (*Span, *trace.Recorder) {
	t.Helper()
	sp := tr.StartRequest("POST", "/run", Context{})
	if !sp.Sampled() {
		t.Fatal("request not sampled")
	}
	probe := sp.StartChild("cache_probe")
	probe.SetAttr("cache", "miss")
	probe.End()
	q := sp.StartChild("queue_wait")
	clk.Advance(2 * time.Millisecond)
	q.End()

	ex := sp.StartChild("execute")
	rec := trace.New(ringCap)
	ex.AttachSim(rec)
	site := rec.SiteID("treeadd.go:42")
	for i := 0; i < nEvents; i++ {
		rec.Emit(trace.Event{Kind: trace.EvCacheMiss, T: int64(i * 10), Dur: 34, Site: site, P: 0, Tid: 0})
	}
	ph := ex.StartChild("phase:kernel")
	clk.Advance(5 * time.Millisecond)
	ph.SetSimCycles(5000)
	ph.End()
	ex.SetSimCycles(5000)
	ex.End()

	ser := sp.StartChild("serialize")
	clk.Advance(time.Millisecond)
	ser.End()
	return sp, rec
}

func TestWriteChromeMergedExport(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 1})
	sp, _ := buildSampledRequest(t, clk, tr, 64, 5)
	finish(tr, sp, clk, 0, ReqInfo{Method: "POST", Path: "/run", Status: 200, Benchmark: "treeadd"})

	var buf bytes.Buffer
	if err := WriteChrome(&buf, sp); err != nil {
		t.Fatal(err)
	}
	stats, err := trace.ValidateChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("merged export failed strict validation: %v\n%s", err, buf.String())
	}
	// Both clock domains must be present: service spans under pid 1000,
	// simulation events under simulated-processor pids.
	if stats.ByPid[1000] < 6 {
		t.Fatalf("service span events = %d, want >= 6 (root + 5 children)", stats.ByPid[1000])
	}
	if stats.ByPid[0] != 5 {
		t.Fatalf("sim events on proc 0 = %d, want 5", stats.ByPid[0])
	}
	if stats.ByCat["service"] == 0 || stats.ByCat["cache"] == 0 {
		t.Fatalf("missing category: %+v", stats.ByCat)
	}
	if stats.DroppedEvents != 0 {
		t.Fatalf("complete trace declares %d dropped events", stats.DroppedEvents)
	}
	// The sim timeline lives in simulated time, the service one in wall
	// time; both appear but under distinct process tracks.
	if !bytes.Contains(buf.Bytes(), []byte("oldend service (wall-clock")) {
		t.Fatal("service process name metadata missing")
	}
	if !bytes.Contains(buf.Bytes(), []byte(sp.TraceID().String())) {
		t.Fatal("trace id metadata missing")
	}
}

// TestDroppedSurfacedEverywhere overflows a tiny ring (one chunk of four
// events) by two whole chunks, and the drop count must appear in
// Profile.Format, the Chrome export metadata, and (via Dropped()) whatever
// metric the server exports.
func TestDroppedSurfacedEverywhere(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 1})
	sp, rec := buildSampledRequest(t, clk, tr, 4, 12)
	finish(tr, sp, clk, 0, ReqInfo{Method: "POST", Path: "/run", Status: 200})

	if got := rec.Dropped(); got != 8 {
		t.Fatalf("Dropped() = %d, want 8", got)
	}
	text := rec.Profile().Format(5)
	if !bytes.Contains([]byte(text), []byte("dropped 8 events")) {
		t.Fatalf("Profile.Format does not surface drops:\n%s", text)
	}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, sp); err != nil {
		t.Fatal(err)
	}
	stats, err := trace.ValidateChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedEvents != 8 {
		t.Fatalf("chrome metadata declares %d dropped, want 8", stats.DroppedEvents)
	}

	tree := Tree(sp)
	if tree.SimDropped != 8 {
		t.Fatalf("tree SimDropped = %d, want 8", tree.SimDropped)
	}
	if tree.SimEvents != 4 {
		t.Fatalf("tree SimEvents = %d, want 4 (ring capacity)", tree.SimEvents)
	}
}

func TestTreeJSONRoundTrip(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 1})
	sp, _ := buildSampledRequest(t, clk, tr, 64, 3)
	finish(tr, sp, clk, 0, ReqInfo{Method: "POST", Path: "/run", Status: 200, Benchmark: "treeadd"})

	b, err := json.Marshal(Tree(sp))
	if err != nil {
		t.Fatal(err)
	}
	var back TraceTree
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != sp.TraceID().String() {
		t.Fatalf("trace id lost in round trip: %q", back.TraceID)
	}
	if back.Dominant == "" || back.Root.Name != "POST /run" {
		t.Fatalf("tree shape lost: %+v", back)
	}
	names := map[string]bool{}
	for _, c := range back.Root.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"cache_probe", "queue_wait", "execute", "serialize"} {
		if !names[want] {
			t.Fatalf("child %q missing from tree: %v", want, names)
		}
	}
	var exec *SpanTree
	for i := range back.Root.Children {
		if back.Root.Children[i].Name == "execute" {
			exec = &back.Root.Children[i]
		}
	}
	if exec == nil || exec.SimCycles != 5000 {
		t.Fatalf("execute sim_cycles lost: %+v", exec)
	}
}

func TestWriteChromeNilSpan(t *testing.T) {
	if err := WriteChrome(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("WriteChrome(nil) succeeded")
	}
}
