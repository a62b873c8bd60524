package obs

import (
	"encoding/hex"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeClock is a deterministic wall clock tests advance by hand.
type fakeClock struct {
	t time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time           { return c.t }
func (c *fakeClock) Advance(d time.Duration)  { c.t = c.t.Add(d) }
func (c *fakeClock) config(cfg Config) Config { cfg.Now = c.Now; return cfg }
func counterRand() func() uint64 {
	var n uint64
	return func() uint64 { n++; return n }
}

func newTestTracer(clk *fakeClock, cfg Config) *Tracer {
	cfg = clk.config(cfg)
	cfg.Rand = counterRand()
	return New(cfg)
}

const validSampled = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// traceparentCases are TestParseTraceparent's table and
// FuzzParseTraceparent's seeds.
var traceparentCases = []struct {
	name    string
	in      string
	wantErr bool
	sampled bool
}{
	{"valid sampled", validSampled, false, true},
	{"valid unsampled", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00", false, false},
	{"flags set high bits", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-03", false, true},
	{"empty", "", true, false},
	{"too short", "00-abc", true, false},
	{"version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", true, false},
	{"version 00 with trailer", validSampled + "-extra", true, false},
	{"future version with trailer", "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", false, true},
	{"future version bad trailer", "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01extra", true, false},
	{"zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01", true, false},
	{"zero parent id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", true, false},
	{"uppercase hex", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", true, false},
	{"bad separator", "00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", true, false},
	{"non-hex version", "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", true, false},
}

func TestParseTraceparent(t *testing.T) {
	for _, tc := range traceparentCases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, err := ParseTraceparent(tc.in)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseTraceparent(%q): want error, got %+v", tc.in, ctx)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseTraceparent(%q): %v", tc.in, err)
			}
			if !ctx.Valid() {
				t.Fatalf("parsed context not valid: %+v", ctx)
			}
			if ctx.Sampled != tc.sampled {
				t.Fatalf("sampled = %v, want %v", ctx.Sampled, tc.sampled)
			}
		})
	}
}

// traceparentRef is ParseTraceparent built from encoding/hex, which
// accepts upper case, plus an explicit lower-case check: the spec's
// accepted set is [0-9a-f] only.
func traceparentRef(s string) (Context, bool) {
	var c Context
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' || strings.ContainsAny(s[:55], "ABCDEF") {
		return c, false
	}
	ver, err1 := hex.DecodeString(s[0:2])
	tid, err2 := hex.DecodeString(s[3:35])
	sid, err3 := hex.DecodeString(s[36:52])
	flags, err4 := hex.DecodeString(s[53:55])
	if errors.Join(err1, err2, err3, err4) != nil || ver[0] == 0xff ||
		ver[0] == 0 && len(s) != 55 || ver[0] != 0 && len(s) > 55 && s[55] != '-' {
		return c, false
	}
	copy(c.TraceID[:], tid)
	copy(c.SpanID[:], sid)
	c.Sampled = flags[0]&1 != 0
	return c, !c.TraceID.IsZero() && !c.SpanID.IsZero()
}

// FuzzParseTraceparent holds the table-driven hex decode against the
// encoding/hex reference: the same verdict on every input, and the same
// context on every accepted one.
func FuzzParseTraceparent(f *testing.F) {
	for _, tc := range traceparentCases {
		f.Add(tc.in)
	}
	f.Add("00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0A")
	f.Add("ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra")
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseTraceparent(s)
		want, ok := traceparentRef(s)
		if (err == nil) != ok || ok && got != want {
			t.Fatalf("ParseTraceparent(%q) = %+v, %v; reference %+v, accepted %v", s, got, err, want, ok)
		}
	})
}

func TestTraceparentRoundTrip(t *testing.T) {
	ctx, err := ParseTraceparent(validSampled)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Traceparent(); got != validSampled {
		t.Fatalf("round trip = %q, want %q", got, validSampled)
	}
	if got := ctx.TraceID.String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace id = %q", got)
	}
	ctx.Sampled = false
	if got := ctx.Traceparent(); !strings.HasSuffix(got, "-00") {
		t.Fatalf("unsampled traceparent = %q, want -00 suffix", got)
	}
}

func TestSamplingPolicy(t *testing.T) {
	clk := newFakeClock()
	upstream, _ := ParseTraceparent(validSampled)

	t.Run("every nth", func(t *testing.T) {
		tr := newTestTracer(clk, Config{SampleEvery: 3})
		var got []bool
		for i := 0; i < 6; i++ {
			got = append(got, tr.StartRequest("POST", "/run", Context{}).Sampled())
		}
		want := []bool{true, false, false, true, false, false}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("request %d sampled = %v, want %v (%v)", i, got[i], want[i], got)
			}
		}
	})
	t.Run("upstream always wins", func(t *testing.T) {
		tr := newTestTracer(clk, Config{SampleEvery: 0})
		if tr.StartRequest("POST", "/run", Context{}).Sampled() {
			t.Fatal("unsampled request sampled with SampleEvery=0")
		}
		sp := tr.StartRequest("POST", "/run", upstream)
		if !sp.Sampled() {
			t.Fatal("upstream-sampled request not sampled")
		}
		if sp.TraceID() != upstream.TraceID {
			t.Fatalf("trace id not propagated: %s", sp.TraceID())
		}
		if sp.Context().SpanID == upstream.SpanID {
			t.Fatal("root span must mint its own span id")
		}
	})
	t.Run("disabled", func(t *testing.T) {
		tr := newTestTracer(clk, Config{SampleEvery: -1})
		if tr.StartRequest("POST", "/run", upstream).Sampled() {
			t.Fatal("disabled tracer sampled a request")
		}
	})
	t.Run("nil tracer", func(t *testing.T) {
		var tr *Tracer
		if tr.StartRequest("POST", "/run", upstream).Sampled() {
			t.Fatal("nil tracer sampled a request")
		}
		tr.FinishRequest(nil, ReqInfo{})
		tr.AbortInflight()
		if tr.Requests() != nil || tr.InFlight() != 0 {
			t.Fatal("nil tracer reported requests")
		}
		if _, ok := tr.Lookup("0af7651916cd43dd8448eb211c80319c"); ok {
			t.Fatal("nil tracer resolved a lookup")
		}
	})
}

func finish(tr *Tracer, sp *Span, clk *fakeClock, d time.Duration, info ReqInfo) {
	clk.Advance(d)
	if info.TraceID == "" {
		info.TraceID = sp.TraceID().String()
	}
	info.DurUS = d.Microseconds()
	tr.FinishRequest(sp, info)
}

func TestTraceRingEviction(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 1})
	var ids []string
	for i := 0; i < traceRing+1; i++ {
		sp := tr.StartRequest("POST", "/run", Context{})
		ids = append(ids, sp.TraceID().String())
		finish(tr, sp, clk, time.Millisecond, ReqInfo{Method: "POST", Path: "/run", Status: 200})
	}
	if _, ok := tr.Lookup(ids[0]); ok {
		t.Fatalf("oldest trace survived eviction from a ring of %d", traceRing)
	}
	for _, id := range ids[1:] {
		if _, ok := tr.Lookup(id); !ok {
			t.Fatalf("trace %s evicted too early", id)
		}
	}
}

func TestRequestsSlowestFirst(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 1})
	durs := []time.Duration{3 * time.Millisecond, 9 * time.Millisecond, 1 * time.Millisecond}
	for i, d := range durs {
		sp := tr.StartRequest("POST", "/run", Context{})
		finish(tr, sp, clk, d, ReqInfo{Method: "POST", Path: "/run", Status: 200, Benchmark: []string{"a", "b", "c"}[i]})
	}
	// One in-flight request, slower than everything finished.
	slow := tr.StartRequest("POST", "/batch", Context{})
	clk.Advance(20 * time.Millisecond)

	reqs := tr.Requests()
	if len(reqs) != 4 {
		t.Fatalf("len(Requests()) = %d, want 4", len(reqs))
	}
	if !reqs[0].InFlight || reqs[0].Path != "/batch" || reqs[0].DurUS != 20000 {
		t.Fatalf("slowest should be the in-flight request: %+v", reqs[0])
	}
	wantDurs := []int64{20000, 9000, 3000, 1000}
	for i, r := range reqs {
		if r.DurUS != wantDurs[i] {
			t.Fatalf("Requests()[%d].DurUS = %d, want %d", i, r.DurUS, wantDurs[i])
		}
	}
	if tr.InFlight() != 1 {
		t.Fatalf("InFlight() = %d, want 1", tr.InFlight())
	}
	slow.End()
}

func TestFinishFlushesUnfinishedChildren(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 1})
	sp := tr.StartRequest("POST", "/run", Context{})
	clk.Advance(time.Millisecond)
	q := sp.StartChild("queue_wait") // never ended: simulates the 504 path
	clk.Advance(4 * time.Millisecond)
	finish(tr, sp, clk, time.Millisecond, ReqInfo{Method: "POST", Path: "/run", Status: 504, ShedReason: "deadline"})

	if q.Attr("aborted") != "true" {
		t.Fatal("unfinished child not flushed with aborted attr")
	}
	tree := Tree(sp)
	if tree.Root.Attrs == nil || sp.Attr("shed_reason") != "deadline" {
		t.Fatal("root missing shed_reason attr")
	}
	if len(tree.Root.Children) != 1 || tree.Root.Children[0].Name != "queue_wait" {
		t.Fatalf("tree missing queue_wait child: %+v", tree.Root)
	}
	// queue_wait ran 4ms of the root's 6ms and was flushed at End time.
	if got := tree.Root.Children[0].DurUS; got != 5000 {
		t.Fatalf("queue_wait dur = %dus, want 5000", got)
	}
}

func TestDominantSpan(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 1})
	sp := tr.StartRequest("POST", "/run", Context{})
	q := sp.StartChild("queue_wait")
	clk.Advance(80 * time.Millisecond)
	q.End()
	ex := sp.StartChild("execute")
	ph := ex.StartChild("phase:kernel")
	clk.Advance(15 * time.Millisecond)
	ph.End()
	clk.Advance(time.Millisecond)
	ex.End()
	finish(tr, sp, clk, 2*time.Millisecond, ReqInfo{Method: "POST", Path: "/run", Status: 200})

	reqs := tr.Requests()
	if len(reqs) != 1 {
		t.Fatalf("len(Requests()) = %d", len(reqs))
	}
	if reqs[0].Dominant != "queue_wait" || reqs[0].DominantDepth != 1 {
		t.Fatalf("dominant = %q depth %d, want queue_wait depth 1", reqs[0].Dominant, reqs[0].DominantDepth)
	}
	tree := Tree(sp)
	if tree.Dominant != "queue_wait" || tree.DominantUS != 80000 {
		t.Fatalf("tree dominant = %q %dus", tree.Dominant, tree.DominantUS)
	}
	// Exclusive times: execute held 16ms total but only 1ms itself.
	var exTree *SpanTree
	for i := range tree.Root.Children {
		if tree.Root.Children[i].Name == "execute" {
			exTree = &tree.Root.Children[i]
		}
	}
	if exTree == nil || exTree.SelfUS != 1000 {
		t.Fatalf("execute self time wrong: %+v", exTree)
	}
}

func TestBoundsDropAndCount(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 1})
	sp := tr.StartRequest("POST", "/run", Context{})
	for i := 0; i < maxChildren+2; i++ {
		c := sp.StartChild("c")
		if (i < maxChildren) != (c != nil) {
			t.Fatalf("child %d: got %v", i, c)
		}
		c.End()
	}
	for i := 0; i < maxAttrs-2; i++ {
		sp.SetAttr("f"+strconv.Itoa(i), "0")
	}
	sp.SetAttr("a", "1")
	sp.SetAttr("b", "2")
	sp.SetAttr("b", "3") // update, not a new attr
	sp.SetAttr("c", "4") // dropped
	if sp.Attr("b") != "3" {
		t.Fatalf("attr update failed: %q", sp.Attr("b"))
	}
	if sp.Attr("c") != "" {
		t.Fatal("over-bound attr was stored")
	}
	// FinishRequest's own status attr also hits the bound: 2 drops total.
	finish(tr, sp, clk, time.Millisecond, ReqInfo{Method: "POST", Path: "/run", Status: 200})
	tree := Tree(sp)
	if tree.Root.DroppedChildren != 2 || tree.Root.DroppedAttrs != 2 {
		t.Fatalf("drop counts = %d children, %d attrs; want 2, 2",
			tree.Root.DroppedChildren, tree.Root.DroppedAttrs)
	}
}

func TestAbortInflightAtDrain(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 1})
	sp := tr.StartRequest("POST", "/run", Context{})
	ex := sp.StartChild("execute")
	clk.Advance(7 * time.Millisecond)

	tr.AbortInflight()
	if tr.InFlight() != 0 {
		t.Fatalf("InFlight() = %d after abort", tr.InFlight())
	}
	got, ok := tr.Lookup(sp.TraceID().String())
	if !ok || got != sp {
		t.Fatal("aborted trace not retained")
	}
	if sp.Attr("aborted") != "true" || ex.Attr("aborted") != "true" {
		t.Fatal("aborted attr missing after drain flush")
	}
	reqs := tr.Requests()
	if len(reqs) != 1 || reqs[0].ShedReason != "aborted_at_drain" {
		t.Fatalf("drain summary wrong: %+v", reqs)
	}
	if reqs[0].Method != "POST" || reqs[0].Path != "/run" || reqs[0].DurUS != 7000 {
		t.Fatalf("drain summary fields wrong: %+v", reqs[0])
	}
}

func TestStartChildOnFinishedSpan(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 1})
	sp := tr.StartRequest("POST", "/run", Context{})
	sp.End()
	if sp.StartChild("late") != nil {
		t.Fatal("StartChild on a finished span returned a live span")
	}
	sp.End() // idempotent
	finish(tr, sp, clk, 0, ReqInfo{Method: "POST", Path: "/run", Status: 200})
}

func TestDuplicateTraceIDReplaces(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 0})
	upstream, _ := ParseTraceparent(validSampled)
	first := tr.StartRequest("POST", "/run", upstream)
	finish(tr, first, clk, time.Millisecond, ReqInfo{Method: "POST", Path: "/run", Status: 200})
	second := tr.StartRequest("POST", "/run", upstream)
	finish(tr, second, clk, time.Millisecond, ReqInfo{Method: "POST", Path: "/run", Status: 200})
	got, ok := tr.Lookup(upstream.TraceID.String())
	if !ok || got != second {
		t.Fatal("retried trace id did not replace the retained tree")
	}
}

// TestUnsampledZeroAllocs pins the tentpole's cost contract: a request
// that is not sampled must allocate no spans — the full per-request
// sequence (header parse, sampling decision, child spans, attrs, finish)
// is free when the decision is "no".
func TestUnsampledZeroAllocs(t *testing.T) {
	clk := newFakeClock()
	tr := newTestTracer(clk, Config{SampleEvery: 0})
	info := ReqInfo{
		TraceID: "0af7651916cd43dd8448eb211c80319c",
		Method:  "POST", Path: "/run", Status: 200,
		Start: clk.Now(), DurUS: 42, Benchmark: "treeadd", Cache: "hit",
	}
	allocs := testing.AllocsPerRun(200, func() {
		ctx, _ := ParseTraceparent("")
		sp := tr.StartRequest("POST", "/run", ctx)
		sp.SetAttr("benchmark", "treeadd")
		child := sp.StartChild("queue_wait")
		child.End()
		sp.SetAttrInt("status", 200)
		sp.SetSimCycles(123)
		sp.End()
		tr.FinishRequest(sp, info)
	})
	if allocs != 0 {
		t.Fatalf("unsampled request path allocates %.1f times per request, want 0", allocs)
	}
	// Rejecting a malformed header must also be free.
	allocs = testing.AllocsPerRun(200, func() {
		_, _ = ParseTraceparent("00-borked")
	})
	if allocs != 0 {
		t.Fatalf("malformed traceparent rejection allocates %.1f, want 0", allocs)
	}
}
