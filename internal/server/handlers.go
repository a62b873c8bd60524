package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// AccessLogger emits one structured JSON line per request through
// log/slog, so access logs, metrics and traces join on trace_id. The
// JSON handler locks internally; one logger serves every request
// goroutine.
type AccessLogger struct {
	h slog.Handler
}

// NewAccessLogger logs one JSON object per request to w. The record's
// time is the request's start time (not the emit time), so log lines
// sort by arrival and match what the span tree says.
func NewAccessLogger(w io.Writer) *AccessLogger {
	return &AccessLogger{h: slog.NewJSONHandler(w, nil)}
}

// Error logs one error-level line outside the per-request sequence (the
// router's cross-replica verify alarm) through the same handler, so it
// interleaves cleanly with the access lines. Nil-safe.
func (l *AccessLogger) Error(msg string, attrs ...slog.Attr) {
	if l == nil {
		return
	}
	rec := slog.NewRecord(time.Now(), slog.LevelError, msg, 0)
	rec.AddAttrs(attrs...)
	_ = l.h.Handle(context.Background(), rec)
}

// ReqState is the per-request state the envelope threads through the
// context: the request's root span (nil when unsampled), the trace id
// every response advertises, and the fields handlers contribute to the
// access-log line and the /debug/requests ring. Every field is omitted
// from the log line when empty.
type ReqState struct {
	Span    *obs.Span
	TraceID string

	Benchmark   string
	Key         string
	Shard       string // the replica that answered (router only)
	Cache       string
	PhaseCache  string
	ShedReason  string
	QueueWaitUS int64
	RunUS       int64
}

type reqStateKey struct{}

// RequestState returns the request's ReqState (a throwaway one when the
// handler runs outside an Envelope, as in direct tests).
func RequestState(r *http.Request) *ReqState {
	if st, ok := r.Context().Value(reqStateKey{}).(*ReqState); ok {
		return st
	}
	return &ReqState{}
}

// emit writes one access-log record, timestamped at the request's start.
func (l *AccessLogger) emit(start time.Time, r *http.Request, sw *statusWriter, durUS int64, st *ReqState) {
	if l == nil {
		return
	}
	rec := slog.NewRecord(start, slog.LevelInfo, "request", 0)
	rec.AddAttrs(
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Int64("bytes", sw.bytes),
		slog.Int64("dur_us", durUS),
	)
	str := func(k, v string) {
		if v != "" {
			rec.AddAttrs(slog.String(k, v))
		}
	}
	num := func(k string, v int64) {
		if v != 0 {
			rec.AddAttrs(slog.Int64(k, v))
		}
	}
	str("remote", r.RemoteAddr)
	str("trace_id", st.TraceID)
	if st.Span.Sampled() {
		rec.AddAttrs(slog.Bool("sampled", true))
	}
	str("benchmark", st.Benchmark)
	str("key", st.Key)
	str("shard", st.Shard)
	str("cache", st.Cache)
	str("phase_cache", st.PhaseCache)
	str("shed_reason", st.ShedReason)
	num("queue_wait_us", st.QueueWaitUS)
	num("run_us", st.RunUS)
	_ = l.h.Handle(context.Background(), rec) // an unloggable request must not fail the request
}

// statusWriter captures the status code and byte count a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Envelope is the one HTTP wrapper oldend and oldenrouter both serve
// behind: tracing, access logging and request accounting, parameterised
// only by the metric prefix and the shard name.
type Envelope struct {
	// Prefix names the request counter: <Prefix>_requests_total{path,code}.
	Prefix string
	// Shard, when set, is stamped on every response as X-Oldend-Shard.
	Shard     string
	Metrics   *metrics.Registry
	Tracer    *obs.Tracer
	AccessLog *AccessLogger
	Now       func() time.Time
}

// Wrap instruments next: it parses the incoming traceparent, makes the
// sampling decision, stamps the trace id on the response before the
// handler can write headers — so 429/503/504 answers carry the id a
// client can quote in a bug report too — and afterwards counts the
// request, finishes its span tree and writes its access line.
func (e Envelope) Wrap(next http.Handler) http.Handler {
	counter := e.Prefix + "_requests_total"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := e.Now()
		parent, _ := obs.ParseTraceparent(r.Header.Get("Traceparent"))
		sp := e.Tracer.StartRequest(r.Method, r.URL.Path, parent)
		var traceID string
		switch {
		case sp.Sampled():
			traceID = sp.TraceID().String()
		case parent.Valid():
			traceID = parent.TraceID.String()
		default:
			traceID = e.Tracer.NewTraceID().String()
		}
		h := w.Header()
		h["X-Request-Id"] = []string{traceID}
		h["X-Oldend-Trace-Id"] = h["X-Request-Id"]
		if e.Shard != "" {
			h["X-Oldend-Shard"] = []string{e.Shard}
		}

		st := &ReqState{Span: sp, TraceID: traceID}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqStateKey{}, st)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		durUS := e.Now().Sub(start).Microseconds()
		e.Metrics.Counter(counter,
			metrics.L("path", r.URL.Path),
			metrics.L("code", strconv.Itoa(sw.status))).Inc()
		e.Tracer.FinishRequest(sp, obs.ReqInfo{
			TraceID:    traceID,
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     sw.status,
			Start:      start,
			DurUS:      durUS,
			Benchmark:  st.Benchmark,
			Cache:      st.Cache,
			ShedReason: st.ShedReason,
		})
		e.AccessLog.emit(start, r, sw, durUS, st)
	})
}

// Handler returns the service's HTTP surface:
//
//	POST /run             execute (or memo-serve) one benchmark run
//	POST /batch           execute a set of runs, deduped against both caches
//	GET  /cache/probe     peer-cache lookup (no execution)
//	GET  /benchmarks      the shared machine-readable catalog
//	GET  /metrics         Prometheus exposition of the server registry
//	GET  /debug/requests  recent + in-flight requests, slowest first
//	GET  /debug/trace/<id>  one sampled request's merged Chrome trace
//	GET  /healthz         liveness (200 while the process serves)
//	GET  /readyz          readiness (503 once drain begins)
//
// Every request passes through the Envelope: access-logged (when a
// logger is configured), counted in oldend_requests_total by endpoint
// and status, and answered with an X-Oldend-Trace-Id header — on shed
// and error paths too.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", Only(http.MethodPost, s.handleRun))
	mux.HandleFunc("/batch", Only(http.MethodPost, s.handleBatch))
	mux.HandleFunc("/cache/probe", Only(http.MethodGet, s.handleCacheProbe))
	mux.HandleFunc("/benchmarks", Only(http.MethodGet, s.handleBenchmarks))
	mux.HandleFunc("/metrics", Only(http.MethodGet, ServeMetrics(s.cfg.Metrics)))
	mux.HandleFunc("/debug/requests", Only(http.MethodGet, s.handleDebugRequests))
	mux.HandleFunc("/debug/trace/", Only(http.MethodGet, s.handleDebugTrace))
	if s.cfg.EnablePprof {
		mountPprof(mux)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", RetryAfterSeconds(s.cfg.RetryAfter))
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return Envelope{
		Prefix:    "oldend",
		Shard:     s.cfg.ShardName,
		Metrics:   s.cfg.Metrics,
		Tracer:    s.cfg.Tracer,
		AccessLog: s.cfg.AccessLog,
		Now:       s.cfg.Now,
	}.Wrap(mux)
}

// maxBody caps a request body; a longer one is refused with 413.
const maxBody = 1 << 20

// readBody reads a request body once. A body over maxBody fails with an
// *http.MaxBytesError in its chain.
func readBody(body io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(body, maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if len(b) > maxBody {
		return nil, fmt.Errorf("request body over the %d-byte limit: %w", maxBody, &http.MaxBytesError{Limit: maxBody})
	}
	return b, nil
}

// DecodeStatus is the status a prologue error answers with, on a replica
// and on the router alike: 413 for a body over the limit (an
// *http.MaxBytesError), 400 for anything else the client sent.
func DecodeStatus(err error) int {
	if errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decoded is one accepted /run body's prologue answer.
type decoded struct {
	req RunRequest
	key string
}

// decodeMemo maps accepted /run bodies of at most maxMemoBody bytes to
// their prologue answer (DESIGN.md §10): DecodeRun is a pure function of
// the bytes, so a repeated body skips the JSON decode.
var decodeMemo = newLRU[decoded](256)

const maxMemoBody = 1 << 10

// DecodeRun is the /run prologue replica and router share: read the body
// (returned, for the router to forward), decode it — json.Unmarshal
// refuses trailing values, so {"benchmark":"treeadd"}{…} is a 400 —
// validate and fill catalog defaults, and derive the canonical key the
// result cache stores under and the ring hashes. Every error is the
// client's (413 for a body over the limit, 400 otherwise).
func DecodeRun(body io.Reader) (RunRequest, string, []byte, error) {
	var req RunRequest
	b, err := readBody(body)
	if err != nil {
		return req, "", nil, err
	}
	if d, ok := decodeMemo.get(string(b)); ok {
		return d.req, d.key, b, nil
	}
	if err := json.Unmarshal(b, &req); err != nil {
		return req, "", b, fmt.Errorf("bad request body: %w", err)
	}
	if req, err = Normalize(req); err != nil {
		return req, "", b, err
	}
	key := CacheKey(req)
	if len(b) <= maxMemoBody {
		decodeMemo.put(string(b), decoded{req, key})
	}
	return req, key, b, nil
}

// lookup is the one result-cache read, shared by /run, /batch and
// /cache/probe (each counting into its own hit/miss pair). A hit is a
// complete 200 result: the memoized bytes — verifiably identical to a
// fresh run by determinism — and the digest they were stored with.
func (s *Server) lookup(key string, hits, misses *metrics.Counter) (result, bool) {
	e, ok := s.cache.get(key)
	if !ok {
		misses.Inc()
		return result{}, false
	}
	hits.Inc()
	return result{status: http.StatusOK, body: e.body, digest: e.digest, cache: "hit"}, true
}

// writeRun renders a run result as an HTTP response. It is the only
// writer of a 200 run answer — result-cache hit, probe hit or fresh
// execution — so all three carry the same headers, which is what lets the
// router compare any two of them byte for byte.
func (s *Server) writeRun(w http.ResponseWriter, res result) {
	switch res.status {
	case http.StatusOK:
		h := w.Header()
		h["X-Oldend-Cache"] = []string{res.cache}
		if res.phase != "" {
			h["X-Oldend-Phase-Cache"] = []string{res.phase}
		}
		h["X-Oldend-Trace-Digest"] = []string{res.digest}
		h["Content-Type"] = []string{"application/json"}
		w.WriteHeader(http.StatusOK)
		w.Write(res.body)
		return
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", RetryAfterSeconds(s.cfg.RetryAfter))
	}
	WriteError(w, res.status, res.errMsg)
}

// handleRun serves one run request: prologue → cache probe → submit →
// render, each stage a span on sampled requests.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, key, _, err := DecodeRun(r.Body)
	if err != nil {
		WriteError(w, DecodeStatus(err), err.Error())
		return
	}
	st := RequestState(r)
	st.Benchmark = req.Benchmark
	st.Key = key

	// A request that bypasses or cross-checks the cache skips the lookup
	// but still records the probe stage with its disposition.
	probe := st.Span.StartChild("cache_probe")
	probe.SetAttr("key", key)
	st.Cache = req.Disposition()
	var res result
	hit := false
	if !req.NoCache && !req.Verify {
		if res, hit = s.lookup(key, s.cacheHits, s.cacheMisses); hit {
			st.Cache = res.cache
		}
	}
	probe.SetAttr("cache", st.Cache)
	probe.End()
	if !hit {
		res = s.submit(r.Context(), st.Span, req, key)
		st.PhaseCache = res.phase
		st.ShedReason = res.shed
		st.QueueWaitUS = res.queueWaitUS
		st.RunUS = res.runUS
	}
	s.writeRun(w, res)
}

// handleCacheProbe is the peer-cache lookup a cluster router (or any
// replica acting as a client) uses to ask "do you already hold this
// result?" without triggering execution:
//
//	GET /cache/probe?key=<canonical cache key>
//
// A hit is rendered by the same writer as a /run cache hit, so a router
// can treat a probe hit and a routed hit interchangeably. A miss is a 404
// and nothing else: probes are deliberately lightweight (no queueing, no
// simulation) so a router can afford to ask several owners about a hot
// key before committing an execution anywhere.
func (s *Server) handleCacheProbe(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		WriteError(w, http.StatusBadRequest, "missing key (the canonical run-config cache key)")
		return
	}
	st := RequestState(r)
	st.Key = key
	res, ok := s.lookup(key, s.probeHits, s.probeMisses)
	if !ok {
		st.Cache = "probe-miss"
		WriteError(w, http.StatusNotFound, "not cached")
		return
	}
	st.Cache = "probe-hit"
	s.writeRun(w, res)
}

// handleBenchmarks serves the shared catalog — the same bytes
// `oldenbench -list` prints, so clients and CLIs cannot drift.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	b, err := bench.CatalogJSON()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// ServeMetrics serves a registry in the Prometheus text exposition
// format with the exporter's Content-Type.
func ServeMetrics(reg *metrics.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		io.WriteString(w, reg.Snapshot().Prometheus())
	}
}

// Only restricts h to one HTTP method; anything else is a 405.
func Only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			WriteError(w, http.StatusMethodNotAllowed, method+" only")
			return
		}
		h(w, r)
	}
}

// WriteJSON and WriteError are the only response writers for non-run
// bodies, shared with the cluster router so error shapes cannot drift.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// RetryAfterSeconds renders a backoff hint as a Retry-After header value:
// whole seconds, rounded up, at least 1.
func RetryAfterSeconds(d time.Duration) string {
	return strconv.FormatInt(max(1, int64((d+time.Second-1)/time.Second)), 10)
}
