package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func ev(k Kind, t int64) Event {
	return Event{Kind: k, T: t, Site: -1, Tid: -1, P: -1, Line: -1}
}

// TestRingWrap pins whole-chunk eviction: a full ring drops its oldest
// chunk, not its oldest event, and holds the rest oldest-first.
func TestRingWrap(t *testing.T) {
	for _, c := range []struct {
		capacity, n, held int
	}{
		{4, 6, 2}, // one chunk of 4: events 4 and 5
		{4, 8, 4}, // events 4 to 7
		{2 * ChunkEvents, 2*ChunkEvents + 3, ChunkEvents + 3}, // the second chunk and three
	} {
		r := New(c.capacity)
		for i := 0; i < c.n; i++ {
			r.Emit(ev(EvCacheHit, int64(i)))
		}
		if r.Len() != c.held {
			t.Fatalf("cap %d, %d events: Len = %d, want %d", c.capacity, c.n, r.Len(), c.held)
		}
		if want := int64(c.n - c.held); r.Dropped() != want {
			t.Fatalf("cap %d, %d events: Dropped = %d, want %d", c.capacity, c.n, r.Dropped(), want)
		}
		for i, e := range events(r) {
			if want := int64(c.n - c.held + i); e.T != want {
				t.Errorf("cap %d: event %d has T=%d, want %d (oldest-first after wrap)", c.capacity, i, e.T, want)
			}
		}
	}
}

func TestSiteInterning(t *testing.T) {
	r := New(8)
	a := r.SiteID("a")
	b := r.SiteID("b")
	if a == b {
		t.Fatalf("distinct names share id %d", a)
	}
	if got := r.SiteID("a"); got != a {
		t.Errorf("re-interning %q gave %d, want %d", "a", got, a)
	}
	if sites := r.sites; len(sites) != 2 || sites[0] != "a" || sites[1] != "b" {
		t.Errorf("sites = %v", sites)
	}
}

func TestDigestStability(t *testing.T) {
	mk := func() *Recorder {
		r := New(16)
		r.Emit(Event{Kind: EvMigrate, T: 10, Dur: 5, Arg: 2, P: 0, Tid: 1, Site: 0, Line: -1})
		r.Emit(Event{Kind: EvCacheMiss, T: 20, Dur: 40, Page: 4096, P: 2, Tid: 1, Site: 1, Line: 3})
		return r
	}
	d1, d2 := mk().Digest(), mk().Digest()
	if d1 != d2 {
		t.Fatalf("identical traces digest differently:\n%s\n%s", d1, d2)
	}
	r3 := mk()
	r3.Emit(ev(EvThreadEnd, 30))
	if d3 := r3.Digest(); d3.Hash == d1.Hash {
		t.Errorf("extra event did not change hash %016x", d1.Hash)
	}
	if d1.Events != 2 || d1.Counts[EvMigrate] != 1 || d1.Counts[EvCacheMiss] != 1 {
		t.Errorf("counts wrong: %+v", d1)
	}
}

// TestDigestFoldsDrops pins that the digest covers every event whatever
// the ring held: one stream, long enough to wrap every capacity below,
// gives one Digest, the reference fold over the whole emitted list.
func TestDigestFoldsDrops(t *testing.T) {
	const n = DefaultCapacity + 2*ChunkEvents + 5
	var all []Event
	for i := 0; i < n; i++ {
		all = append(all, testEvent(i))
	}
	want := referenceDigest(all)
	for _, capacity := range []int{1, 511, 512, 513, 1025, DefaultCapacity} {
		r := New(capacity)
		for _, e := range all {
			r.Emit(e)
		}
		if r.Dropped() == 0 {
			t.Fatalf("capacity %d: the ring never wrapped", capacity)
		}
		if d := r.Digest(); d != want {
			t.Errorf("capacity %d (dropped %d):\n got %s\nwant %s", capacity, r.Dropped(), d, want)
		}
	}
}

// TestAccessDigest pins the access projection's three defining properties:
// protocol events are invisible, timing is invisible, and order is
// invisible — while the multiset of semantic access events is not.
func TestAccessDigest(t *testing.T) {
	hit := Event{Kind: EvCacheHit, T: 10, Page: 4096, Site: 1, Tid: 0, P: 1, Line: 2}
	miss := Event{Kind: EvCacheMiss, T: 20, Dur: 44, Page: 8192, Site: 2, Tid: 0, P: 1, Line: 0}

	base := New(16)
	base.Emit(hit)
	base.Emit(miss)
	want := base.AccessDigest()
	if want.Events != 2 || want.Counts[EvCacheHit] != 1 || want.Counts[EvCacheMiss] != 1 {
		t.Fatalf("access counts wrong: %+v", want)
	}

	// Protocol events (flush, inval, ack, stamp, stale) must not perturb it.
	proto := New(16)
	proto.Emit(hit)
	proto.Emit(Event{Kind: EvFullFlush, T: 15, Arg: 7, P: 1, Site: -1, Line: -1})
	proto.Emit(Event{Kind: EvLineInval, T: 16, Arg: 3, Page: 4096, P: 2, Site: -1, Line: -1})
	proto.Emit(Event{Kind: EvMarkStale, T: 17, Arg: 4, P: 1, Site: -1, Line: -1})
	proto.Emit(miss)
	if got := proto.AccessDigest(); got != want {
		t.Errorf("protocol events leaked into access digest:\n got %s\nwant %s", got, want)
	}

	// Timing shifts (a different coherence scheme's clock) must not either.
	late := New(16)
	h2, m2 := hit, miss
	h2.T, m2.T, m2.Dur = 900, 1000, 80
	late.Emit(h2)
	late.Emit(m2)
	if got := late.AccessDigest(); got != want {
		t.Errorf("timing leaked into access digest:\n got %s\nwant %s", got, want)
	}

	// Nor must emission order: the digest is over the event multiset.
	rev := New(16)
	rev.Emit(miss)
	rev.Emit(hit)
	if got := rev.AccessDigest(); got != want {
		t.Errorf("order leaked into access digest:\n got %s\nwant %s", got, want)
	}

	// But a genuinely different access (another page) must change it.
	other := New(16)
	h3 := hit
	h3.Page = 12288
	other.Emit(h3)
	other.Emit(miss)
	if got := other.AccessDigest(); got.Hash == want.Hash {
		t.Errorf("different page collided at %016x", got.Hash)
	}

	if accessKinds[EvLineInval] || accessKinds[EvFullFlush] || !accessKinds[EvMigrate] {
		t.Error("accessKinds misclassifies protocol/semantic kinds")
	}
}

func TestDigestString(t *testing.T) {
	r := New(8)
	r.Emit(ev(EvMigrate, 1))
	r.Emit(ev(EvMigrate, 2))
	r.Emit(ev(EvFutureTouch, 3))
	got := r.Digest().String()
	want := "events=3 dropped=0 hash="
	if len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("digest string %q lacks prefix %q", got, want)
	}
	const suffix = " migrate=2,touch=1"
	if got[len(got)-len(suffix):] != suffix {
		t.Errorf("digest string %q lacks per-kind counts %q", got, suffix)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 100, 1000} {
		h.Add(v)
	}
	if h.Count != 6 || h.Sum != 1106 || h.Max != 1000 {
		t.Fatalf("histogram totals: %+v", h)
	}
	if q := h.Quantile(1.0); q < 1000 {
		t.Errorf("p100 bound %d below max 1000", q)
	}
	if q := h.Quantile(0.5); q > 8 {
		t.Errorf("p50 bound %d implausibly high for %v", q, h.Buckets)
	}
	var neg Histogram
	neg.Add(-5)
	if neg.Sum != 0 || neg.Count != 1 {
		t.Errorf("negative values should clamp to zero: %+v", neg)
	}
}

func TestProfileAggregation(t *testing.T) {
	r := New(64)
	hot := r.SiteID("hot")
	cold := r.SiteID("cold")
	r.Emit(Event{Kind: EvCacheMiss, T: 0, Dur: 50, Page: 2048, Site: hot, Tid: 0, P: 1, Line: 0})
	r.Emit(Event{Kind: EvCacheMiss, T: 60, Dur: 70, Page: 2048, Site: hot, Tid: 0, P: 1, Line: 1})
	r.Emit(Event{Kind: EvCacheHit, T: 130, Page: 2048, Site: cold, Tid: 0, P: 1, Line: 0})
	r.Emit(Event{Kind: EvMigrate, T: 140, Dur: 10, Arg: 3, Site: cold, Tid: 0, P: 1, Line: -1})
	r.Emit(Event{Kind: EvLineInval, T: 150, Arg: 0b101, Page: 2048, P: 2, Tid: -1, Line: -1})
	p := r.Profile()
	if len(p.Sites) != 2 || p.Sites[0].Site != "hot" {
		t.Fatalf("sites not sorted by misses: %+v", p.Sites)
	}
	if p.Sites[0].Misses != 2 || p.Sites[0].MissLatency.Max != 70 {
		t.Errorf("hot site aggregation wrong: %+v", p.Sites[0])
	}
	if p.Sites[1].Migrations != 1 || p.Sites[1].FanOut[3] != 1 {
		t.Errorf("cold site migration fan-out wrong: %+v", p.Sites[1])
	}
	if len(p.Pages) != 1 {
		t.Fatalf("pages: %+v", p.Pages)
	}
	pg := p.Pages[0]
	if pg.Hits != 1 || pg.Misses != 2 || pg.InvalMsgs != 1 || pg.InvalLines != 2 {
		t.Errorf("page aggregation wrong: %+v", pg)
	}
	if p.Migrations != 1 {
		t.Errorf("global migration count %d", p.Migrations)
	}
	if s := p.Format(10); s == "" {
		t.Error("Format returned nothing")
	}
}

// TestWriteChromeValidJSON pins that the exporter emits well-formed Chrome
// trace_event JSON with the expected phase vocabulary.
func TestWriteChromeValidJSON(t *testing.T) {
	r := New(64)
	s := r.SiteID("site")
	r.Emit(Event{Kind: EvThreadStart, T: 0, Tid: 1, P: -1, Site: -1, Line: -1})
	r.Emit(Event{Kind: EvResidency, T: 0, Dur: 100, P: 0, Tid: 1, Site: -1, Line: -1})
	r.Emit(Event{Kind: EvMigrate, T: 100, Dur: 8, Arg: 2, P: 0, Tid: 1, Site: s, Line: -1})
	r.Emit(Event{Kind: EvCacheMiss, T: 120, Dur: 44, Page: 4096, P: 2, Tid: 1, Site: s, Line: 2})
	r.Emit(Event{Kind: EvFullFlush, T: 130, Arg: 7, P: 2, Tid: 1, Site: -1, Line: -1})
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Pid  *int   `json:"pid"`
			Ts   *int64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "" || e.Pid == nil {
			t.Fatalf("event missing required fields: %+v", e)
		}
		if e.Ph != "M" && e.Ts == nil {
			t.Fatalf("non-metadata event missing ts: %+v", e)
		}
		phases[e.Ph] = true
	}
	for _, want := range []string{"M", "X", "i", "s", "f"} {
		if !phases[want] {
			t.Errorf("no %q-phase events in output (got %v)", want, phases)
		}
	}
}
