package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndHandlesAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles, got %v %v %v", c, g, h)
	}
	// None of these may panic, and all reads are zero.
	c.Add(5)
	c.Inc()
	g.Add(-1)
	h.Observe(100)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	r.RegisterFunc("x", KindCounter, func() int64 { return 1 })
	r.RegisterFunc("y", KindGauge, func() int64 { return 1 })
	if r.Len() != 0 {
		t.Fatal("nil registry has no metrics")
	}
	if snap := r.Snapshot(); len(snap.Samples) != 0 {
		t.Fatalf("nil registry snapshot must be empty, got %d samples", len(snap.Samples))
	}
}

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("olden_migrations_total")
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if c2 := r.Counter("olden_migrations_total"); c2 != c {
		t.Fatal("same id must return the same counter handle")
	}

	g := r.Gauge("pages")
	g.Add(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	h := r.Histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 900} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 906 {
		t.Fatalf("hist count/sum = %d/%d, want 5/906", h.Count(), h.Sum())
	}
	sm, ok := r.Snapshot().Get("lat")
	if !ok || sm.Hist == nil {
		t.Fatal("histogram sample missing")
	}
	// 0 → bucket le=0; 1 → le=1; 2,3 → le=3; 900 → le=1023.
	want := []Bucket{{0, 1}, {1, 1}, {3, 2}, {1023, 1}}
	if len(sm.Hist.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", sm.Hist.Buckets, want)
	}
	for i, b := range want {
		if sm.Hist.Buckets[i] != b {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, sm.Hist.Buckets[i], b)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m")
}

func TestLabelsAreCanonicalized(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("msgs", L("type", "inval"), L("scheme", "global"))
	b := r.Counter("msgs", L("scheme", "global"), L("type", "inval"))
	if a != b {
		t.Fatal("label order must not distinguish metrics")
	}
	a.Add(2)
	sm, ok := r.Snapshot().Get("msgs", L("type", "inval"), L("scheme", "global"))
	if !ok || sm.Value != 2 {
		t.Fatalf("labelled lookup got %+v ok=%v", sm, ok)
	}
	if want := `msgs{scheme="global",type="inval"}`; sm.ID() != want {
		t.Fatalf("ID = %q, want %q", sm.ID(), want)
	}
}

// fmtLabelID is the fmt rendering labelID replaced, kept to hold the
// strconv one to the same bytes.
func fmtLabelID(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

func TestLabelIDMatchesFmt(t *testing.T) {
	for _, v := range []string{"", "plain", `a"quote`, `back\slash`, "new\nline", "tab\tbell\a", "\xff\xfe invalid", "naïve 日本 🙂", "\u2028\x00", "\x1f", "\x7f", " ~", "http://r0"} {
		for _, ls := range [][]Label{nil, {L("k", v)}, {L("a", "1"), L("b", v), L("c", v+v)}} {
			if got, want := labelID(ls), fmtLabelID(ls); got != want {
				t.Errorf("labelID(%q) = %q, fmt renders %q", ls, got, want)
			}
		}
	}
}

func TestCounterLookupIsAllocationFree(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("req_total", L("path", "/run"), L("code", "200"))
	if b := r.Counter("req_total", L("code", "200"), L("path", "/run")); a != b {
		t.Fatal("reversed labels returned a different handle")
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("req_total", L("path", "/run"), L("code", "200")).Inc()
	}); n != 0 {
		t.Fatalf("existing-id Counter lookup: %v allocations, want 0", n)
	}
}

func TestSnapshotIsSortedAndDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(1)
	r.Counter("a", L("x", "2")).Add(2)
	r.Counter("a", L("x", "1")).Add(3)
	s1, s2 := r.Snapshot(), r.Snapshot()
	ids := []string{}
	for _, sm := range s1.Samples {
		ids = append(ids, sm.ID())
	}
	want := []string{`a{x="1"}`, `a{x="2"}`, "b"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order %v, want %v", ids, want)
		}
	}
	if s1.Prometheus() != s2.Prometheus() {
		t.Fatal("snapshots of unchanged registry must serialize identically")
	}
}

func TestRegisterCounterAndFunc(t *testing.T) {
	r := NewRegistry()
	owned := r.Counter("owned")
	owned.Add(11)
	count, live := int64(7), int64(40)
	r.RegisterFunc("bound", KindCounter, func() int64 { return count })
	r.RegisterFunc("fn", KindGauge, func() int64 { return live }, L("proc", "0"))

	snap := r.Snapshot()
	if sm, _ := snap.Get("bound"); sm.Value != 7 || sm.Kind != "counter" {
		t.Fatalf("bound counter = %+v, want counter 7", sm)
	}
	if sm, _ := snap.Get("fn", L("proc", "0")); sm.Value != 40 {
		t.Fatalf("func metric = %d, want 40", sm.Value)
	}
	if sm, _ := snap.Get("owned"); sm.Value != 11 {
		t.Fatalf("owned counter = %d, want 11", sm.Value)
	}
	live = 41
	if sm, _ := r.Snapshot().Get("fn", L("proc", "0")); sm.Value != 41 {
		t.Fatal("func metric must be read-through")
	}
}

func TestExporters(t *testing.T) {
	r := NewRegistry()
	r.Counter("olden_misses_total", L("scheme", "local")).Add(3)
	h := r.Histogram("olden_miss_latency_cycles")
	h.Observe(3)
	h.Observe(500)
	snap := r.Snapshot()

	flat := snap.Flat()
	if flat[`olden_misses_total{scheme="local"}`] != 3 {
		t.Fatalf("flat export: %v", flat)
	}
	if flat["olden_miss_latency_cycles:count"] != 2 || flat["olden_miss_latency_cycles:sum"] != 503 {
		t.Fatalf("flat histogram export: %v", flat)
	}
	if flat["olden_miss_latency_cycles:le=3"] != 1 || flat["olden_miss_latency_cycles:le=511"] != 1 {
		t.Fatalf("flat histogram buckets: %v", flat)
	}

	prom := snap.Prometheus()
	for _, want := range []string{
		"# TYPE olden_misses_total counter",
		`olden_misses_total{scheme="local"} 3`,
		"# TYPE olden_miss_latency_cycles histogram",
		`olden_miss_latency_cycles_bucket{le="3"} 1`,
		`olden_miss_latency_cycles_bucket{le="511"} 2`, // cumulative
		`olden_miss_latency_cycles_bucket{le="+Inf"} 2`,
		"olden_miss_latency_cycles_sum 503",
		"olden_miss_latency_cycles_count 2",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus export missing %q:\n%s", want, prom)
		}
	}

}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat").Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestBucketBound(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 1, 2: 3, 3: 7, 10: 1023}
	for i, want := range cases {
		if got := BucketBound(i); got != want {
			t.Fatalf("BucketBound(%d) = %d, want %d", i, got, want)
		}
	}
	if BucketBound(64) != int64(^uint64(0)>>1) {
		t.Fatal("top bucket must cover every int64")
	}
}
