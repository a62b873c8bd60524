package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the benchmark's own tracing: spans recorded around the
// calls into each layer, from outside the layer. A traced pass wraps the
// router handler, the transport and each replica handler; an untraced pass
// installs none of this and calls the layers directly.

// span is one timed interval. The spans of one request share Req; Parent
// is the ID of the span that caused this one, 0 for the request's root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// reqTrace collects the spans of one request. A /batch request fans out, so
// spans can begin on several goroutines at once.
type reqTrace struct {
	t0  time.Time
	req int

	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID.
func (rt *reqTrace) begin(parent int, name string) int {
	return rt.add(parent, name, time.Since(rt.t0).Nanoseconds(), 0)
}

func (rt *reqTrace) end(id int) {
	now := time.Since(rt.t0).Nanoseconds()
	rt.mu.Lock()
	rt.spans[id-1].End = now
	rt.mu.Unlock()
}

// add records a span whose interval is already known (one lifted from an
// obs span tree) and returns its ID.
func (rt *reqTrace) add(parent int, name string, start, end int64) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	id := len(rt.spans) + 1
	rt.spans = append(rt.spans, span{Req: rt.req, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// children returns the spans directly under parent.
func (rt *reqTrace) children(parent int) []span {
	var out []span
	for _, s := range rt.spans {
		if s.Parent == parent {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover;
// children that overlap (a fan-out) are counted once.
func selfTime(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, edge := int64(0), s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.dur() - covered
}

// spanCtx is how a span's identity travels down a call chain: the router
// derives its outbound requests' contexts from the inbound one, so a value
// put there at the client comes out at the transport.
type spanCtx struct {
	rt     *reqTrace
	parent int
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, rt *reqTrace, parent int) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{rt, parent})
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc, ok
}

// tracedHandler records a span around every call of h.
func tracedHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc, ok := spanFrom(r.Context())
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id := sc.rt.begin(sc.parent, name)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sc.rt, id)))
		sc.rt.end(id)
	})
}

// tracedTransport records a span around every exchange.
type tracedTransport struct{ next http.RoundTripper }

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, ok := spanFrom(req.Context())
	if !ok {
		return t.next.RoundTrip(req)
	}
	id := sc.rt.begin(sc.parent, "exchange:"+req.URL.Host)
	resp, err := t.next.RoundTrip(req.WithContext(withSpan(req.Context(), sc.rt, id)))
	sc.rt.end(id)
	return resp, err
}

// layerSamples is what a traced pass learns: per-layer timing samples, and
// the spans themselves for the trace file.
type layerSamples struct {
	t0 time.Time

	mu      sync.Mutex
	byName  map[string][]float64 // microseconds
	spans   []span
	dropped int // requests whose spans were not kept (maxSpans)
	reqs    int
}

func newLayerSamples() *layerSamples {
	return &layerSamples{t0: time.Now(), byName: map[string][]float64{}}
}

// request starts the trace of one more request.
func (ls *layerSamples) request() *reqTrace {
	ls.mu.Lock()
	ls.reqs++
	n := ls.reqs
	ls.mu.Unlock()
	return &reqTrace{t0: ls.t0, req: n}
}

// keep files a finished request's samples and spans.
func (ls *layerSamples) keep(rt *reqTrace, samples map[string][]float64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for name, vs := range samples {
		ls.byName[name] = append(ls.byName[name], vs...)
	}
	if len(ls.spans)+len(rt.spans) > maxSpans {
		ls.dropped++
		return
	}
	ls.spans = append(ls.spans, rt.spans...)
}

// write saves the spans as out/trace-<workload>.json.
func (ls *layerSamples) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload        string `json:"workload"`
		Seed            int64  `json:"seed"`
		Requests        int    `json:"requests"`
		RequestsDropped int    `json:"requests_dropped"`
		Spans           []span `json:"spans"`
	}{workload, seed, ls.reqs, ls.dropped, ls.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

// liftTree copies an obs span tree under one of the benchmark's own spans
// and collects the service-side samples: the layers inside a replica (or
// the router) that the benchmark cannot wrap from outside but that the
// service already traces itself.
func liftTree(rt *reqTrace, parent int, tt obs.TraceTree, samples map[string][]float64) {
	base := tt.Start.Sub(rt.t0).Nanoseconds()
	var walk func(parent int, st obs.SpanTree, top bool)
	walk = func(parent int, st obs.SpanTree, top bool) {
		start := base + st.StartUS*1000
		id := parent
		if !top { // the root duplicates the benchmark's own span around the handler
			id = rt.add(parent, st.Name, start, start+st.DurUS*1000)
		}
		switch {
		case st.Name == "cache_probe":
			samples["cache_probe_us"] = append(samples["cache_probe_us"], float64(st.SelfUS))
		case st.Name == "queue_wait", st.Name == "execute", st.Name == "serialize":
			samples[st.Name+"_us"] = append(samples[st.Name+"_us"], float64(st.DurUS))
		case strings.HasPrefix(st.Name, "phase:"):
			name := strings.TrimPrefix(st.Name, "phase:") + "_us"
			samples[name] = append(samples[name], float64(st.DurUS))
		}
		for _, c := range st.Children {
			walk(id, c, false)
		}
	}
	walk(parent, tt.Root, true)
}

// childNamed finds a direct child of an obs span by name.
func childNamed(st obs.SpanTree, name string) (obs.SpanTree, bool) {
	for _, c := range st.Children {
		if c.Name == name {
			return c, true
		}
	}
	return obs.SpanTree{}, false
}
