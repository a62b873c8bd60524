package obs

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/trace"
)

// Attr is one key/value annotation on a span. Values are strings so the
// span stays pointer-light and renders directly into exports.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation within a request: a name, identity,
// wall-clock bounds, optional simulated-cycle cost, bounded attributes
// and a bounded child list. A nil *Span is the unsampled state; every
// method is nil-safe and free, which is what keeps the unsampled request
// path at zero span allocations.
//
// A span is owned by the goroutine driving its request phase, but phases
// hand off between the HTTP handler and a pool worker, so the struct is
// internally locked; the bounded lists make the cost of that lock and of
// a hostile request's attribute spam both O(1).
type Span struct {
	mu       sync.Mutex
	tracer   *Tracer
	name     string
	traceID  TraceID
	spanID   SpanID
	parentID SpanID

	startWall time.Time
	endWall   time.Time
	finished  bool

	// simCycles is the simulated-cycle cost attributed to this span
	// (the second clock the tentpole asks for); -1 means not applicable.
	simCycles int64

	attrs     []Attr
	dropAttrs int
	children  []*Span
	dropKids  int
	// simRec, set on the root execute path once the run has returned,
	// bridges the request down to the simulator: the recorder's events
	// render under this span tree in the merged Chrome export.
	simRec *trace.Recorder
}

// Sampled reports whether the span is live (non-nil): the one-branch
// check instrumentation points use before doing sampled-only work.
func (s *Span) Sampled() bool { return s != nil }

// TraceID returns the span's trace id (zero for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// Context returns the span's propagation context with the sampled flag
// set — what an outbound hop would send as traceparent.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{TraceID: s.traceID, SpanID: s.spanID, Sampled: true}
}

// StartChild opens a child span. Returns nil — the disabled state — on a
// nil receiver, on a finished span, or once the child bound is reached
// (the drop is counted and surfaced in exports).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return nil
	}
	if len(s.children) >= maxChildren {
		s.dropKids++
		return nil
	}
	c := &Span{
		tracer:    s.tracer,
		name:      name,
		traceID:   s.traceID,
		spanID:    s.tracer.newSpanID(),
		parentID:  s.spanID,
		startWall: s.tracer.now(),
		simCycles: -1,
	}
	s.children = append(s.children, c)
	return c
}

// SetAttr annotates the span. Attributes beyond the bound are dropped
// and counted. No-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	if len(s.attrs) >= maxAttrs {
		s.dropAttrs++
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value. No-op on nil.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// Attr returns the value of an attribute ("" when absent or nil).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// SetSimCycles records the simulated-cycle cost attributed to the span —
// the second clock alongside wall time. No-op on nil.
func (s *Span) SetSimCycles(cycles int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.simCycles = cycles
	s.mu.Unlock()
}

// AttachSim binds the per-request simulation recorder to the span, so
// the merged Chrome export shows the simulation events under the
// service tree. No-op on nil.
//
// The recorder takes no lock, so it is attached once its run has
// returned: the span's mutex then orders the run's last Emit before any
// reader. Until then a view of the span shows its service spans and no
// simulation tracks.
func (s *Span) AttachSim(rec *trace.Recorder) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.simRec = rec
	s.mu.Unlock()
}

// End closes the span at the tracer's current wall clock. Idempotent —
// the first End wins — and nil-safe, so handoff races between a timed-out
// handler and a worker that surfaces later resolve harmlessly.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.finished {
		s.finished = true
		s.endWall = s.tracer.now()
	}
	s.mu.Unlock()
}

// EndAborted marks the span aborted and closes it: the shape drain and
// deadline paths leave behind, distinguishable from a clean finish.
func (s *Span) EndAborted() {
	if s == nil {
		return
	}
	s.SetAttr("aborted", "true")
	s.End()
}

// Duration returns the span's wall-clock duration; for an unfinished
// span, the elapsed time so far against the given now.
func (s *Span) Duration(now time.Time) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return s.endWall.Sub(s.startWall)
	}
	return now.Sub(s.startWall)
}

// flushUnfinished closes every unfinished span in the tree with the
// aborted attribute — called when the request finishes (or drain fires)
// so an exported tree never contains dangling open spans.
func (s *Span) flushUnfinished() {
	if s == nil {
		return
	}
	s.mu.Lock()
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	finished := s.finished
	s.mu.Unlock()
	for _, c := range kids {
		c.flushUnfinished()
	}
	if !finished {
		s.EndAborted()
	}
}

// spanSnap is a consistent copy of one span, taken child-first under
// each span's own lock — what the exporters render from, so they never
// hold locks while writing.
type spanSnap struct {
	name      string
	spanID    SpanID
	parentID  SpanID
	start     time.Time
	end       time.Time
	finished  bool
	simCycles int64
	attrs     []Attr
	dropKids  int
	dropAttrs int
	children  []spanSnap
	simRec    *trace.Recorder
}

func (s *Span) snapshot(now time.Time) spanSnap {
	s.mu.Lock()
	snap := spanSnap{
		name:      s.name,
		spanID:    s.spanID,
		parentID:  s.parentID,
		start:     s.startWall,
		end:       s.endWall,
		finished:  s.finished,
		simCycles: s.simCycles,
		attrs:     append([]Attr(nil), s.attrs...),
		dropKids:  s.dropKids,
		dropAttrs: s.dropAttrs,
		simRec:    s.simRec,
	}
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	if !snap.finished {
		snap.end = now
	}
	snap.children = make([]spanSnap, 0, len(kids))
	for _, c := range kids {
		snap.children = append(snap.children, c.snapshot(now))
	}
	return snap
}

func (sn spanSnap) durUS() int64 { return sn.end.Sub(sn.start).Microseconds() }

// dominant returns the span with the greatest exclusive (self) time in
// the snapshot tree and its depth (root = 0): the one-line answer to
// "where did this request's latency go".
func (sn spanSnap) dominant() (name string, depth int, selfUS int64) {
	var walk func(s spanSnap, d int)
	walk = func(s spanSnap, d int) {
		self := s.durUS()
		for _, c := range s.children {
			self -= c.durUS()
			walk(c, d+1)
		}
		if self > selfUS || name == "" {
			name, depth, selfUS = s.name, d, self
		}
	}
	walk(sn, 0)
	return name, depth, selfUS
}
