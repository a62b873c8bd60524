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
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind is the metric type tag.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
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

// Gauge is a value that can move both ways. The zero value is ready to use;
// a nil *Gauge ignores updates.
type Gauge struct{ v atomic.Int64 }

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

// appendID appends a metric's canonical id to b: the name, then the
// key-sorted labels as {k="v",...}, each value quoted byte for byte as
// fmt's %q quotes it.
func appendID(b []byte, name string, sorted []Label) []byte {
	b = append(b, name...)
	if len(sorted) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range sorted {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = appendQuoted(b, l.Value)
	}
	return append(b, '}')
}

// appendQuoted is strconv.AppendQuote with a fast path: printable ASCII
// without a quote or backslash — every label value the services use —
// needs no escape, so it is copied between quotes without a per-rune walk.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// labelID renders sorted labels canonically: {k="v",...}.
func labelID(sorted []Label) string { return string(appendID(nil, "", sorted)) }

// sortLabels appends labels to dst sorted by key. Insertion sort: stable,
// free of allocation when dst has the room, and what sort.Slice does to
// sets this short.
func sortLabels(dst, labels []Label) []Label {
	dst = append(dst, labels...)
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Key < dst[j-1].Key; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// get returns the entry for (name, labels), creating it with kind if absent.
// A kind mismatch on an existing id panics: two layers disagreeing on a
// metric's type is a programming error, not a runtime condition. The id is
// built in stack buffers, so a lookup of an existing entry (up to four
// labels) allocates nothing.
func (r *Registry) get(name string, kind Kind, labels []Label) *entry {
	var lbuf [4]Label
	var ibuf [128]byte
	ls := sortLabels(lbuf[:0], labels)
	id := appendID(ibuf[:0], name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.index[string(id)]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", e.id, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: append([]Label(nil), ls...), id: string(id), kind: kind}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindGauge:
		e.g = &Gauge{}
	case KindHistogram:
		e.h = &Histogram{}
	}
	r.index[e.id] = e
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
	ls := sortLabels(nil, labels)
	id := string(appendID(nil, name, ls))
	r.mu.Lock()
	r.index[id] = &entry{name: name, labels: ls, id: id, kind: kind, fn: fn}
	r.mu.Unlock()
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
