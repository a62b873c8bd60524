package obs

import (
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer. The zero value is usable: honor-upstream-only
// sampling.
type Config struct {
	// SampleEvery selects local head sampling: N >= 1 samples every Nth
	// request (1 = all), 0 samples only requests whose incoming
	// traceparent carries the sampled flag, and a negative value
	// disables sampling entirely (even propagated).
	SampleEvery int
	// Now substitutes the wall clock (tests); nil means time.Now.
	Now func() time.Time
	// Rand substitutes the id entropy source (tests); nil means the
	// runtime's PRNG. Trace ids are operational identifiers, not
	// simulation state, so this randomness does not touch determinism.
	Rand func() uint64
}

func (c Config) withDefaults() Config {
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Rand == nil {
		c.Rand = rand.Uint64
	}
	return c
}

// The tracer's bounds: the requestRing finished-request summaries served
// by GET /debug/requests (every request lands there, sampled or not, by
// value, so recording an unsampled one allocates nothing), the traceRing
// sampled span trees retained for GET /debug/trace/<id> (FIFO eviction),
// and each span's maxChildren children and maxAttrs attributes (excess is
// dropped and counted, never allocated).
const requestRing, traceRing, maxChildren, maxAttrs = 256, 64, 64, 32

// ReqSummary is one request's introspection record: identity, outcome,
// latency and — when sampled — the dominant span. It is a value type so
// the tracer's ring holds finished requests without allocating.
type ReqSummary struct {
	TraceID    string    `json:"trace_id"`
	Method     string    `json:"method"`
	Path       string    `json:"path"`
	Status     int       `json:"status"`
	Start      time.Time `json:"start"`
	DurUS      int64     `json:"dur_us"`
	Sampled    bool      `json:"sampled"`
	InFlight   bool      `json:"in_flight"`
	Benchmark  string    `json:"benchmark,omitempty"`
	Cache      string    `json:"cache,omitempty"`
	ShedReason string    `json:"shed_reason,omitempty"`
	// Dominant names the span with the greatest exclusive time and its
	// depth in the tree — "queue_wait dominates at depth 2" as data.
	Dominant      string `json:"dominant,omitempty"`
	DominantDepth int    `json:"dominant_depth,omitempty"`
}

// ReqInfo is what the HTTP layer reports when a request finishes: its
// summary, less what the tracer fills in (Sampled, InFlight, Dominant).
// TraceID carries the already-rendered id string (the same one sent in
// the X-Oldend-Trace-Id header) so unsampled accounting reuses the
// allocation instead of making another.
type ReqInfo = ReqSummary

// Tracer decides sampling, owns live request spans, and retains rings of
// finished requests and sampled traces for the introspection endpoints.
// A nil *Tracer is fully disabled; all methods are nil-safe.
type Tracer struct {
	cfg     Config
	counter atomic.Uint64

	mu       sync.Mutex
	reqs     [requestRing]ReqSummary // finished-request ring
	reqNext  int
	reqCount int

	inflight map[TraceID]*Span
	finished map[TraceID]*Span
	ring     []TraceID // FIFO of finished sampled trace ids
	ringNext int
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{
		cfg:      cfg,
		inflight: make(map[TraceID]*Span),
		finished: make(map[TraceID]*Span),
		ring:     make([]TraceID, 0, traceRing),
	}
}

func (t *Tracer) now() time.Time { return t.cfg.Now() }

// NewTraceID mints a random non-zero trace id.
func (t *Tracer) NewTraceID() TraceID {
	var id TraceID
	if t == nil {
		return id
	}
	for id.IsZero() {
		a, b := t.cfg.Rand(), t.cfg.Rand()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		v := t.cfg.Rand()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (8 * i))
		}
	}
	return id
}

// StartRequest makes the sampling decision for one request and, when
// sampled, opens its root span (registered in-flight). It returns nil —
// at zero allocations — when the request is not sampled: an upstream
// sampled traceparent always samples, otherwise local 1-in-N sampling
// applies, and a negative SampleEvery disables both.
func (t *Tracer) StartRequest(method, path string, parent Context) *Span {
	if t == nil || t.cfg.SampleEvery < 0 {
		return nil
	}
	sampled := parent.Valid() && parent.Sampled
	if !sampled && t.cfg.SampleEvery > 0 {
		sampled = (t.counter.Add(1)-1)%uint64(t.cfg.SampleEvery) == 0
	}
	if !sampled {
		return nil
	}
	traceID := parent.TraceID
	if traceID.IsZero() {
		traceID = t.NewTraceID()
	}
	sp := &Span{
		tracer:    t,
		name:      method + " " + path,
		traceID:   traceID,
		spanID:    t.newSpanID(),
		parentID:  parent.SpanID,
		startWall: t.now(),
		simCycles: -1,
	}
	t.mu.Lock()
	t.inflight[traceID] = sp
	t.mu.Unlock()
	return sp
}

// FinishRequest completes one request's accounting: the summary lands in
// the finished-request ring, and — when the request was sampled — every
// unfinished span in the tree is flushed with the aborted attribute, the
// root is closed, and the tree moves from in-flight to the retained
// trace ring. Safe with sp == nil (the unsampled case) and on a nil
// tracer.
func (t *Tracer) FinishRequest(sp *Span, sum ReqInfo) {
	if t == nil {
		return
	}
	if sp != nil {
		if sum.Status != 0 {
			sp.SetAttrInt("status", int64(sum.Status))
		}
		if sum.Benchmark != "" {
			sp.SetAttr("benchmark", sum.Benchmark)
		}
		if sum.Cache != "" {
			sp.SetAttr("cache", sum.Cache)
		}
		if sum.ShedReason != "" {
			sp.SetAttr("shed_reason", sum.ShedReason)
		}
		// End the root cleanly before flushing: only children left
		// dangling (a 504's queue_wait, say) deserve the aborted attr.
		sp.End()
		sp.flushUnfinished()
		sum.Sampled = true
		snap := sp.snapshot(t.now())
		sum.Dominant, sum.DominantDepth, _ = snap.dominant()
		t.retain(sp)
	}
	t.record(sum)
}

// record writes a finished request's summary into the ring.
func (t *Tracer) record(sum ReqSummary) {
	t.mu.Lock()
	t.reqs[t.reqNext] = sum
	t.reqNext = (t.reqNext + 1) % len(t.reqs)
	if t.reqCount < len(t.reqs) {
		t.reqCount++
	}
	t.mu.Unlock()
}

// retain moves a finished sampled root from in-flight to the bounded
// trace ring, evicting the oldest retained trace when full.
func (t *Tracer) retain(sp *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.inflight, sp.traceID)
	if _, dup := t.finished[sp.traceID]; dup {
		// A reused trace id (client retry with the same traceparent)
		// replaces the retained tree in place rather than growing the
		// ring.
		t.finished[sp.traceID] = sp
		return
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp.traceID)
	} else {
		delete(t.finished, t.ring[t.ringNext])
		t.ring[t.ringNext] = sp.traceID
		t.ringNext = (t.ringNext + 1) % len(t.ring)
	}
	t.finished[sp.traceID] = sp
}

// AbortInflight flushes every in-flight sampled request — drain and
// SIGTERM call this so no span tree is lost half-open: each tree's
// unfinished spans get the aborted attribute and the tree is retained
// as if the request had finished.
func (t *Tracer) AbortInflight() {
	if t == nil {
		return
	}
	t.mu.Lock()
	roots := slices.Collect(maps.Values(t.inflight))
	t.mu.Unlock()
	sort.Slice(roots, func(i, j int) bool { return roots[i].startWall.Before(roots[j].startWall) })
	for _, sp := range roots {
		sp.flushUnfinished()
		snap := sp.snapshot(t.now())
		dom, depth, _ := snap.dominant()
		t.retain(sp)
		method, path, _ := strings.Cut(sp.name, " ")
		t.record(ReqSummary{
			TraceID:       sp.traceID.String(),
			Method:        method,
			Path:          path,
			Start:         snap.start,
			DurUS:         snap.durUS(),
			Sampled:       true,
			ShedReason:    "aborted_at_drain",
			Dominant:      dom,
			DominantDepth: depth,
		})
	}
}

// Lookup resolves a trace id string to its retained (or still in-flight)
// span tree.
func (t *Tracer) Lookup(id string) (*Span, bool) {
	if t == nil {
		return nil, false
	}
	tid, err := ParseTraceID(id)
	if err != nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp, ok := t.finished[tid]; ok {
		return sp, true
	}
	if sp, ok := t.inflight[tid]; ok {
		return sp, true
	}
	return nil, false
}

// Requests returns the introspection list: every in-flight sampled
// request plus the ring of recently finished ones, slowest first (the
// order an operator asking "why is p99 burning" wants). In-flight
// entries report elapsed time so far.
func (t *Tracer) Requests() []ReqSummary {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	out := make([]ReqSummary, 0, t.reqCount+len(t.inflight))
	inflight := slices.Collect(maps.Values(t.inflight))
	for i := 0; i < t.reqCount; i++ {
		out = append(out, t.reqs[(t.reqNext-1-i+len(t.reqs))%len(t.reqs)])
	}
	t.mu.Unlock()
	for _, sp := range inflight {
		method, path, _ := strings.Cut(sp.name, " ") // a root span is named "<method> <path>"
		out = append(out, ReqSummary{
			TraceID:   sp.TraceID().String(),
			Method:    method,
			Path:      path,
			Start:     sp.startWall,
			DurUS:     sp.Duration(now).Microseconds(),
			Sampled:   true,
			InFlight:  true,
			Benchmark: sp.Attr("benchmark"),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].DurUS > out[j].DurUS })
	return out
}

// InFlight returns the number of sampled requests currently open.
func (t *Tracer) InFlight() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inflight)
}
