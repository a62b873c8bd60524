// Package metrics is a typed, label-aware metrics registry for the
// simulated machine: counters, gauges and log2-bucketed histograms with
// cheap atomic updates, point-in-time snapshots, and two exporters: the
// flat map benchmark records embed and the Prometheus exposition.
//
// Recording is off by default. Every handle constructor is safe on a nil
// *Registry and returns a nil handle, and every update method is safe on a
// nil handle, so instrumented layers hold possibly-nil handles and pay one
// predictable branch when metrics are disabled — the same discipline the
// trace recorder uses. Because all simulation events are emitted on the
// deterministic virtual-time schedule, an enabled registry's snapshot is a
// pure function of the program and configuration: the same run always
// produces the same dump, which is what lets benchmark records diff exactly.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the metric type tag.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count (resettable at
	// simulation phase boundaries).
	KindCounter Kind = iota
	// KindGauge is a value that can move both ways.
	KindGauge
	// KindHistogram is a log2-bucketed distribution of int64 observations.
	KindHistogram
)

// String names the kind as it appears in exports.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "?"
}

// Label is one name=value dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil *Counter is the disabled state and ignores updates.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (zero for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Store sets the count — used by phase resets, which may rewind a counter
// to zero. No-op on a nil counter.
func (c *Counter) Store(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Gauge is a value that can move both ways. The zero value is ready to use;
// a nil *Gauge ignores updates.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value. No-op on a nil gauge.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (may be negative). No-op on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value (zero for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the number of histogram buckets: bucket i holds
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i-1], with
// bucket 0 holding v <= 0. 64-bit observations always fit.
const NumBuckets = 65

// Histogram is a log2-bucketed distribution of int64 observations (cycle
// latencies, fan-outs). The zero value is ready to use; a nil *Histogram
// ignores observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
	// ex holds one optional exemplar per bucket (see ObserveExemplar);
	// nil slots cost nothing.
	ex [NumBuckets]atomic.Pointer[exemplarCell]
}

// bucketIndex maps an observation to its bucket: bits.Len64, with
// non-positive values in bucket 0.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one observation. Negative values land in bucket 0 with
// the zeros. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations (zero for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (zero for a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// BucketBound returns the inclusive upper bound of bucket i (2^i − 1);
// the last bucket's bound covers every int64.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return (1 << uint(i)) - 1
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
		h.ex[i].Store(nil)
	}
}

// entry is one registered metric: an owned handle or a read-through
// function.
type entry struct {
	name   string
	labels []Label // sorted by key
	id     string  // name + canonical label rendering
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() int64
}

// Registry holds named metrics. A nil *Registry is the disabled state:
// handle constructors return nil handles and Snapshot returns an empty
// snapshot. The registry is safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	index map[string]*entry
	help  map[string]string // metric name -> HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{index: map[string]*entry{}} }

// SetHelp records the HELP text for a metric name (all label variants
// share it). Exporters escape it per their format. No-op on a nil
// registry.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.help == nil {
		r.help = map[string]string{}
	}
	r.help[name] = help
	r.mu.Unlock()
}

// labelID renders labels canonically: sorted by key, {k="v",...}.
func labelID(labels []Label) string {
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

func canonLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// get returns the entry for (name, labels), creating it with kind if absent.
// A kind mismatch on an existing id panics: two layers disagreeing on a
// metric's type is a programming error, not a runtime condition.
func (r *Registry) get(name string, kind Kind, labels []Label) *entry {
	ls := canonLabels(labels)
	id := name + labelID(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.index[id]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", id, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: ls, id: id, kind: kind}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindGauge:
		e.g = &Gauge{}
	case KindHistogram:
		e.h = &Histogram{}
	}
	r.index[id] = e
	return e
}

// Counter returns the counter registered under (name, labels), creating it
// on first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, KindCounter, labels).c
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, KindGauge, labels).g
}

// Histogram returns the histogram registered under (name, labels), creating
// it on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, KindHistogram, labels).h
}

// RegisterFunc binds a read-through metric: its value is fn() at snapshot
// time, called under the registry's lock — fn does its own synchronising,
// or (the simulator's run-owned counts) the registry is read only when the
// owner is not running. kind must be KindCounter or KindGauge. Replaces any
// previous binding of the id. No-op on a nil registry.
func (r *Registry) RegisterFunc(name string, kind Kind, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	if kind == KindHistogram {
		panic("metrics: RegisterFunc does not support histograms")
	}
	ls := canonLabels(labels)
	id := name + labelID(ls)
	r.mu.Lock()
	r.index[id] = &entry{name: name, labels: ls, id: id, kind: kind, fn: fn}
	r.mu.Unlock()
}

// Reset zeroes every owned metric. Function-backed metrics are read-through
// and cannot be reset here: whoever owns the value behind one resets it
// (rt.ResetForKernel does, for every count of a run, before calling this).
// No-op on a nil registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.index {
		switch {
		case e.fn != nil:
		case e.c != nil:
			e.c.Store(0)
		case e.g != nil:
			e.g.Set(0)
		case e.h != nil:
			e.h.reset()
		}
	}
}

// Len returns the number of registered metrics (zero on a nil registry).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.index)
}
