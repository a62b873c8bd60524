package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
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

// ReqState is the per-request state the envelope hands on in its response
// writer: the tracer's summary (handlers fill in Benchmark, Cache and
// ShedReason), the root span (nil when unsampled), the traceparent an
// unsampled hop forwards and the access-log fields; empty ones go unlogged.
type ReqState struct {
	obs.ReqInfo
	Span *obs.Span
	// Traceparent is the incoming one when it parsed, else one minted
	// around TraceID (low half as parent-id): the next hop joins on it.
	Traceparent []string

	Key         string
	Shard       string // the replica that answered (router only)
	PhaseCache  string
	QueueWaitUS int64
	RunUS       int64
}

// RequestState returns the ReqState of the envelope that wrote w (a
// throwaway one outside an Envelope, as in direct tests).
func RequestState(w http.ResponseWriter) *ReqState {
	if es, ok := w.(*envState); ok {
		return &es.st
	}
	return &ReqState{}
}

// emit writes one access-log record, timestamped at the request's start.
func (l *AccessLogger) emit(r *http.Request, bytes int64, st *ReqState) {
	if l == nil {
		return
	}
	rec := slog.NewRecord(st.Start, slog.LevelInfo, "request", 0)
	rec.AddAttrs(
		slog.String("method", st.Method),
		slog.String("path", st.Path),
		slog.Int("status", st.Status),
		slog.Int64("bytes", bytes),
		slog.Int64("dur_us", st.DurUS),
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

// envState is the envelope's one allocation per request: the writer that
// captures the status (into st.Status) and byte count the handler wrote,
// the state RequestState finds through it, and the header values.
type envState struct {
	http.ResponseWriter
	st      ReqState
	bytes   int64
	tid, tp [1]string
}

func (w *envState) WriteHeader(code int) {
	if w.st.Status == 0 {
		w.st.Status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envState) Write(b []byte) (int, error) {
	if w.st.Status == 0 {
		w.st.Status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// routeStatus keys the request counter.
type routeStatus struct {
	route  string
	status int
}

// Wrap instruments next: it parses the incoming traceparent, makes the
// sampling decision, stamps the trace id on the response before the
// handler can write headers — so 429/503/504 answers carry the id a
// client can quote in a bug report too — and afterwards counts the
// request under the pattern the mux recorded on r (a path would mint a
// series per unknown URL), finishes its span tree and writes its access line.
func (e Envelope) Wrap(next http.Handler) http.Handler {
	var counts metrics.Handles[routeStatus, *metrics.Counter]
	count := func(rs routeStatus) *metrics.Counter {
		return e.Metrics.Counter(e.Prefix+"_requests_total", metrics.L("path", rs.route), metrics.L("code", strconv.Itoa(rs.status)))
	}
	shard := []string{e.Shard} // shared by every response; never written in place
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := e.Now()
		tp := r.Header.Get("Traceparent")
		parent, _ := obs.ParseTraceparent(tp)
		sp := e.Tracer.StartRequest(r.Method, r.URL.Path, parent)
		if !parent.Valid() { // a sampled request with a parent has the parent's id
			id := sp.TraceID()
			if !sp.Sampled() {
				id = e.Tracer.NewTraceID()
			}
			tp = obs.Context{TraceID: id, SpanID: obs.SpanID(id[8:])}.Traceparent()
		}
		es := &envState{ResponseWriter: w, tid: [1]string{tp[3:35]}, tp: [1]string{tp}}
		st := &es.st
		*st = ReqState{ReqInfo: obs.ReqInfo{TraceID: es.tid[0], Method: r.Method, Path: r.URL.Path, Start: start},
			Span: sp, Traceparent: es.tp[:]}
		h := w.Header()
		h["X-Request-Id"] = es.tid[:]
		h["X-Oldend-Trace-Id"] = es.tid[:]
		if e.Shard != "" {
			h["X-Oldend-Shard"] = shard
		}

		next.ServeHTTP(es, r)
		if st.Status == 0 {
			st.Status = http.StatusOK
		}
		st.DurUS = e.Now().Sub(start).Microseconds()
		counts.Get(routeStatus{cmp.Or(r.Pattern, "unmatched"), st.Status}, count).Inc()
		e.Tracer.FinishRequest(sp, st.ReqInfo)
		e.AccessLog.emit(r, es.bytes, st)
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

// readBody reads a request body once. A declared length n goes into a
// buffer one byte longer, so a body that ends early or runs past n (only
// in-process: over a socket net/http stops at n) is a 400; an unknown one
// (chunked, or 0 with a body) is read up to one byte past maxBody. Over
// maxBody, declared (before a byte is read) or read, is an *http.MaxBytesError.
// A read cut by the server's ReadTimeout is errBodyTimeout.
func readBody(body io.Reader, n int64) ([]byte, error) {
	var b []byte
	var err error
	if n <= 0 {
		b, err = io.ReadAll(io.LimitReader(body, maxBody+1))
		n = int64(len(b))
	} else if n <= maxBody {
		b = make([]byte, n+1)
		var k int
		if k, err = io.ReadFull(body, b); k == int(n) && err == io.ErrUnexpectedEOF {
			return b[:n], nil
		} else if k > int(n) {
			err = fmt.Errorf("body longer than its %d-byte Content-Length", n)
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return nil, errBodyTimeout
	}
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if n > maxBody {
		return nil, fmt.Errorf("request body over the %d-byte limit: %w", maxBody, &http.MaxBytesError{Limit: maxBody})
	}
	return b, nil
}

// errBodyTimeout is a body that did not arrive within the server's
// ReadTimeout. Its text names no socket address, unlike the read error.
var errBodyTimeout = errors.New("request body not received within the read timeout")

// DecodeStatus is the status a prologue error answers with, on a replica
// and on the router alike: 413 for a body over the limit (an
// *http.MaxBytesError), 408 for a body the read timeout cut, 400 for
// anything else the client sent.
func DecodeStatus(err error) int {
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errBodyTimeout):
		return http.StatusRequestTimeout
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
// of declared length n (returned, for the router to forward), decode it
// (json.Unmarshal refuses trailing values: {"benchmark":"treeadd"}{…} is
// a 400), validate and fill catalog defaults, and derive the canonical
// key the result cache stores under and the ring hashes. Every error is
// the client's (413 for a body over the limit, 408 for one the read
// timeout cut, 400 otherwise).
func DecodeRun(body io.Reader, n int64) (RunRequest, string, []byte, error) {
	b, err := readBody(body, n)
	if err != nil {
		return RunRequest{}, "", nil, err
	}
	if d, ok := lruGet(decodeMemo, b); ok {
		return d.req, d.key, b, nil
	}
	var req RunRequest // declared past the hit path, which it would escape on
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
	e, ok := lruGet(s.cache, key)
	if !ok {
		misses.Inc()
		return result{}, false
	}
	hits.Inc()
	return result{status: http.StatusOK, entry: e, cache: "hit"}, true
}

// Header values shared by every 200 run answer that carries them.
var (
	jsonType    = []string{"application/json"}
	cacheHeader = map[string][]string{"hit": {"hit"}, "miss": {"miss"}, "bypass": {"bypass"}, "verify": {"verify"}}
)

// writeRun renders a run result as an HTTP response. It is the only
// writer of a 200 run answer — result-cache hit, probe hit or fresh
// execution — so all three carry the same headers and bytes.
func (s *Server) writeRun(w http.ResponseWriter, res result) {
	switch res.status {
	case http.StatusOK:
		h := w.Header()
		h["X-Oldend-Cache"] = cacheHeader[res.cache]
		if res.phase != "" {
			h["X-Oldend-Phase-Cache"] = []string{res.phase}
		}
		h["X-Oldend-Trace-Digest"] = res.entry.digestHdr
		h["Content-Type"] = jsonType
		h["Content-Length"] = res.entry.lengthHdr // a router reads it into a pooled buffer
		w.WriteHeader(http.StatusOK)
		w.Write(res.entry.body)
		return
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", RetryAfterSeconds(s.cfg.RetryAfter))
	}
	WriteError(w, res.status, res.errMsg)
}

// handleRun serves one run request: prologue → cache probe → submit →
// render, each stage a span on sampled requests.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, key, _, err := DecodeRun(r.Body, r.ContentLength)
	if err != nil {
		WriteError(w, DecodeStatus(err), err.Error())
		return
	}
	st := RequestState(w)
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
	st := RequestState(w)
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
