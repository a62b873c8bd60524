// Package server is oldend's serving layer: a long-running HTTP service
// that executes Olden benchmark runs on a bounded worker pool with
// admission control, per-request deadlines, deterministic result
// memoization, Prometheus metrics and graceful drain.
//
// The production envelope mirrors the paper's own theme one level up the
// stack: the simulator software-caches remote heap lines because remote
// fetches are expensive; the server memoizes whole run results because
// runs are expensive — and PR 3's determinism work (byte-stable trace
// digests) is what makes that memoization *sound* rather than heuristic:
// a RunRecord is a pure function of its run configuration, so cached
// bytes are exactly what a re-run would produce, and any divergence is a
// determinism bug worth failing loudly over.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/coherence"
	"repro/internal/gaddr"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rt"
)

// RunRequest is the POST /run body: one benchmark run configuration.
// Unset fields take the catalog defaults; the canonicalized configuration
// is the result-cache key.
type RunRequest struct {
	Benchmark string `json:"benchmark"`
	Baseline  bool   `json:"baseline,omitempty"`
	Procs     int    `json:"procs,omitempty"`
	Scale     int    `json:"scale,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	Mode      string `json:"mode,omitempty"`

	// NoCache bypasses the result cache entirely: the run executes and
	// its result is not stored.
	NoCache bool `json:"no_cache,omitempty"`
	// DeadlineMS caps this request's time in the service (queue wait +
	// execution), bounded above by the server's MaxDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CacheKey renders the canonical result-cache key of a normalized run
// configuration — the single source of truth shared by the server's
// result cache, the cluster router's consistent-hash ring and the tests.
// It deliberately excludes NoCache/DeadlineMS: those shape
// request handling, not the result. Two processes that agree on this
// string agree on result identity, which is what lets a router shard
// the cache across replicas without any coordination protocol. It is
// appended in a stack buffer; the returned string is its one allocation.
func CacheKey(q RunRequest) string {
	var buf [128]byte
	b := append(buf[:0], q.Benchmark...)
	b = append(b, "|baseline="...)
	b = strconv.AppendBool(b, q.Baseline)
	b = append(b, "|P="...)
	b = strconv.AppendInt(b, int64(q.Procs), 10)
	b = append(b, "|scale="...)
	b = strconv.AppendInt(b, int64(q.Scale), 10)
	b = append(b, "|scheme="...)
	b = append(b, q.Scheme...)
	b = append(b, "|mode="...)
	b = append(b, q.Mode...)
	return string(b)
}

// Disposition returns the cache disposition a (normalized) request
// carries into execution: "bypass" when it refuses the cache, else "miss".
func (q RunRequest) Disposition() string {
	if q.NoCache {
		return "bypass"
	}
	return "miss"
}

// ExecuteFunc runs one normalized request to completion and returns its
// record. The default executes the registered benchmark; tests substitute
// controllable fakes to exercise queueing without timing dependence. sp
// is the request's execute span — nil unless the request is sampled, and
// safe to use either way.
type ExecuteFunc func(req RunRequest, sp *obs.Span) (record.RunRecord, error)

// executePhasedFunc is what the worker calls: ExecuteFunc plus the
// phase-cache disposition — "hit" (build state restored), "miss" (built
// and stored), "none" (not phase-cacheable) or "" (a substituted
// executor, which has no phase path).
type executePhasedFunc func(req RunRequest, sp *obs.Span) (record.RunRecord, string, error)

// Config tunes a Server. The zero value is usable: every field has a
// default chosen for a small local instance.
type Config struct {
	// Workers is the execution pool size — the maximum number of
	// simulations in flight at once (default 4). Each job gets its own
	// machine and runtime, so workers share nothing but the pool.
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds load
	// with 429 rather than queueing unboundedly (default 64).
	QueueDepth int
	// CacheEntries is the result-cache capacity in entries; 0 picks the
	// default (256), negative disables memoization.
	CacheEntries int
	// PhaseCacheEntries is the phase-cache capacity: memoized build-phase
	// boundaries shared across schemes and modes, keyed by
	// bench.Info.BuildKey (benchmarks without one are not admitted).
	// 0 picks the default (64), negative disables it.
	PhaseCacheEntries int
	// DefaultDeadline applies when a request names none (default 60s);
	// MaxDeadline caps what a request may ask for (default 5m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RetryAfter is the backoff hint attached to 429/503 responses
	// (default 1s, rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// ShardName, when set, identifies this replica in a cluster: every
	// response carries it as X-Oldend-Shard, which is how the router's
	// balance reporting and the smoke scripts attribute traffic without
	// trusting the router's own bookkeeping.
	ShardName string
	// Metrics receives server-level counters and histograms; a fresh
	// registry is created when nil.
	Metrics *metrics.Registry
	// AccessLog, when non-nil, receives one JSON object per request.
	AccessLog *AccessLogger
	// Tracer owns request sampling and span retention; when nil one is
	// built from SampleEvery. Supplying a tracer lets tests pin its
	// clock and randomness.
	Tracer *obs.Tracer
	// SampleEvery is the head-sampling rate when Tracer is nil: N >= 1
	// samples every Nth request, 0 (the default) samples only requests
	// carrying an upstream-sampled traceparent, negative disables
	// tracing entirely.
	SampleEvery int
	// Execute substitutes the run executor (tests); nil means the real
	// phase-cached benchmark executor. A substituted executor bypasses
	// the phase cache.
	Execute ExecuteFunc
	// Now substitutes the wall clock (tests); nil means time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.PhaseCacheEntries == 0 {
		c.PhaseCacheEntries = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Tracer == nil {
		c.Tracer = obs.New(obs.Config{
			SampleEvery: c.SampleEvery,
			Now:         c.Now,
		})
	}
	return c
}

// result is the outcome of one run request, whichever stage produced it
// — the result cache, the admission step or a worker — in the one shape
// /run renders as a response and /batch as a BatchItem. Phase timings ride
// along so the handler can log them without sharing mutable state with
// the worker.
type result struct {
	status      int
	entry       *cacheEntry // the record (200 only)
	errMsg      string
	cache       string // hit | miss | bypass; "" when no worker answered
	phase       string // hit | miss | none | "" (executor has no phase path)
	shed        string // why admission or the worker refused the job
	queueWaitUS int64
	runUS       int64
}

// job is one admitted run request waiting for a worker.
type job struct {
	req      RunRequest
	key      string
	cache    string // cache disposition decided at admission
	ctx      context.Context
	enqueued time.Time
	done     chan result // buffered(1): workers never block on delivery

	// Tracing state, both nil for unsampled requests: the request's parent
	// span (execute and serialize spans hang off it) and the queue_wait
	// span the worker closes on dequeue.
	sp    *obs.Span
	qspan *obs.Span
}

// Server is the oldend service core. Create with New, mount Handler, and
// call Shutdown to drain.
type Server struct {
	cfg    Config
	cache  *lruCache[*cacheEntry]
	phases *lruCache[*bench.BuildState]
	// building holds the phase-cache builds in flight, by build key
	// (phaseState); buildMu guards it.
	buildMu  sync.Mutex
	building map[string]*phaseBuild
	// execute is the worker's run path: the substituted Execute or the
	// server's own phase-cached executor.
	execute executePhasedFunc

	queue    chan *job
	wg       sync.WaitGroup
	admitMu  sync.RWMutex // write-held only by Shutdown, closing queue
	draining atomic.Bool

	// server-level metrics (all wall-clock observations in microseconds)
	shed         *metrics.Counter
	expired      *metrics.Counter
	cacheHits    *metrics.Counter
	cacheMisses  *metrics.Counter
	phaseHits    *metrics.Counter
	phaseMisses  *metrics.Counter
	probeHits    *metrics.Counter
	probeMisses  *metrics.Counter
	inflight     *metrics.Gauge
	queueWait    *metrics.Histogram
	runLatency   *metrics.Histogram
	simCycles    *metrics.Counter
	traceDropped *metrics.Counter
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    newLRU[*cacheEntry](cfg.CacheEntries),
		phases:   newLRU[*bench.BuildState](cfg.PhaseCacheEntries),
		building: map[string]*phaseBuild{},
		queue:    make(chan *job, cfg.QueueDepth),
	}
	s.execute = s.defaultExecutePhased
	if cfg.Execute != nil {
		s.execute = func(req RunRequest, sp *obs.Span) (record.RunRecord, string, error) {
			rec, err := cfg.Execute(req, sp)
			return rec, "", err
		}
	}
	m := cfg.Metrics
	m.SetHelp("oldend_requests_total", "Requests served, by endpoint and status code.")
	m.SetHelp("oldend_shed_total", "Run requests rejected with 429 because the admission queue was full.")
	m.SetHelp("oldend_deadline_expired_total", "Admitted jobs whose deadline expired before a worker picked them up.")
	m.SetHelp("oldend_cache_hits_total", "Run requests served from the deterministic result cache.")
	m.SetHelp("oldend_cache_misses_total", "Run requests that executed because no memoized result existed.")
	m.SetHelp("oldend_phase_cache_hits_total", "Runs that restored a memoized build-phase boundary instead of rebuilding.")
	m.SetHelp("oldend_phase_cache_misses_total", "Phase-cacheable runs that built (and memoized) their build state.")
	m.SetHelp("oldend_phase_cache_entries", "Build-phase boundaries resident in the phase cache right now.")
	m.SetHelp("oldend_cache_probe_total", "Peer cache probes (GET /cache/probe) served, by outcome.")
	m.SetHelp("oldend_queue_depth", "Jobs waiting in the admission queue right now.")
	m.SetHelp("oldend_cache_entries", "Entries resident in the result cache right now.")
	m.SetHelp("oldend_inflight_runs", "Simulations executing on the worker pool right now.")
	m.SetHelp("oldend_queue_wait_us", "Wall-clock time admitted jobs spent queued, in microseconds.")
	m.SetHelp("oldend_run_us", "Wall-clock execution time of one simulation run, in microseconds.")
	m.SetHelp("oldend_runs_total", "Completed simulation runs, by benchmark.")
	m.SetHelp("oldend_sim_cycles_total", "Simulated cycles executed across all completed runs.")
	m.SetHelp("oldend_trace_dropped_total", "Simulation trace events lost to per-request ring wrap-around on sampled runs.")
	s.shed = m.Counter("oldend_shed_total")
	s.expired = m.Counter("oldend_deadline_expired_total")
	s.cacheHits = m.Counter("oldend_cache_hits_total")
	s.cacheMisses = m.Counter("oldend_cache_misses_total")
	s.phaseHits = m.Counter("oldend_phase_cache_hits_total")
	s.phaseMisses = m.Counter("oldend_phase_cache_misses_total")
	s.probeHits = m.Counter("oldend_cache_probe_total", metrics.L("outcome", "hit"))
	s.probeMisses = m.Counter("oldend_cache_probe_total", metrics.L("outcome", "miss"))
	s.inflight = m.Gauge("oldend_inflight_runs")
	s.queueWait = m.Histogram("oldend_queue_wait_us")
	s.runLatency = m.Histogram("oldend_run_us")
	s.simCycles = m.Counter("oldend_sim_cycles_total")
	s.traceDropped = m.Counter("oldend_trace_dropped_total")
	m.RegisterFunc("oldend_queue_depth", metrics.KindGauge, func() int64 { return int64(len(s.queue)) })
	m.RegisterFunc("oldend_cache_entries", metrics.KindGauge, func() int64 { return int64(s.cache.len()) })
	m.RegisterFunc("oldend_phase_cache_entries", metrics.KindGauge, func() int64 { return int64(s.phases.len()) })
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics exposes the server's registry (shared with Config.Metrics).
func (s *Server) Metrics() *metrics.Registry { return s.cfg.Metrics }

// Tracer exposes the server's request tracer (shared with Config.Tracer).
func (s *Server) Tracer() *obs.Tracer { return s.cfg.Tracer }

// Shutdown begins graceful drain: readiness fails and new runs are
// refused immediately, admitted jobs run to completion, and Shutdown
// returns when the pool is idle or ctx expires. Safe to call twice.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	if !s.draining.Swap(true) {
		close(s.queue)
	}
	s.admitMu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	// Whatever sampled requests are still open when drain completes (or
	// is abandoned) get their span trees flushed with the aborted attr
	// and retained, so a post-mortem can still read them.
	defer s.cfg.Tracer.AbortInflight()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// HTTPServer is the http.Server oldend and oldenrouter both listen with.
// ReadTimeout bounds the whole request, so a client that declares a body
// and stalls does not hold a handler and its buffer for ever. IdleTimeout
// outlives http.DefaultTransport's 90 s, so a router never reuses a
// connection its replica just closed (a POST is not replayed: the shard
// would be marked down). No WriteTimeout: a run may last until -max-deadline.
func HTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 30 * time.Second, IdleTimeout: 120 * time.Second}
}

// Serve is the lifecycle oldend and oldenrouter share: h on HTTPServer(addr,
// h) until SIGINT or SIGTERM, then, within timeout, drain (nil for none)
// while the listener still answers, then the listener's Shutdown, which
// waits for in-flight responses. Progress goes to stderr under name; the
// error says which step failed.
func Serve(name, addr string, h http.Handler, timeout time.Duration, drain func(context.Context) error) error {
	srv := HTTPServer(addr, h)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return fmt.Errorf("listen: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "%s: draining\n", name)
	dctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if drain != nil {
		if err := drain(dctx); err != nil {
			srv.Close()
			return fmt.Errorf("drain incomplete: %w", err)
		}
	}
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: drained cleanly\n", name)
	return nil
}

// admission outcomes.
const (
	admitOK = iota
	admitShed
	admitDraining
)

// admit offers the job to the bounded queue without blocking. The read
// lock excludes Shutdown's queue close, so a send can never race it.
func (s *Server) admit(j *job) int {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return admitDraining
	}
	select {
	case s.queue <- j:
		return admitOK
	default:
		return admitShed
	}
}

// submit is the one admission point: it builds the job, opens its
// queue_wait span under sp, offers it to the queue and waits for a worker
// within the request's deadline (queue wait + run). Shed, draining and
// deadline outcomes come back as results like any other, so /run and
// /batch only differ in how they render what submit returns.
func (s *Server) submit(parent context.Context, sp *obs.Span, req RunRequest, key string) result {
	ctx, cancel := context.WithTimeout(parent, s.clampDeadline(req.DeadlineMS))
	defer cancel()
	j := &job{
		req:      req,
		key:      key,
		cache:    req.Disposition(),
		ctx:      ctx,
		enqueued: s.cfg.Now(),
		done:     make(chan result, 1),
		sp:       sp,
	}
	// The queue_wait span must exist before admit: a worker may dequeue
	// (and close it) before admit even returns.
	j.qspan = sp.StartChild("queue_wait")
	switch s.admit(j) {
	case admitShed:
		j.qspan.EndAborted()
		s.shed.Inc()
		return result{status: http.StatusTooManyRequests, errMsg: "admission queue full; retry after backoff", shed: "queue_full"}
	case admitDraining:
		j.qspan.EndAborted()
		return result{status: http.StatusServiceUnavailable, errMsg: "server is draining", shed: "draining"}
	}
	// If the deadline fires first the caller answers 504 and the worker
	// discards the stale job when it surfaces; the dangling queue_wait
	// span is flushed (aborted) at finish, so the 504's span tree is
	// still complete.
	select {
	case res := <-j.done:
		return res
	case <-ctx.Done():
		select {
		case res := <-j.done: // result arrived in the same instant; serve it
			return res
		default:
			return result{status: http.StatusGatewayTimeout, errMsg: "deadline exceeded: " + ctx.Err().Error(),
				shed: "deadline", queueWaitUS: s.cfg.Now().Sub(j.enqueued).Microseconds()}
		}
	}
}

// worker executes admitted jobs until drain closes the queue. Deadlines
// are honored at phase boundaries: a job whose context expired while
// queued is skipped (freeing the slot for live work), and one whose
// context expired during execution has its result discarded by the
// waiting handler — the simulation itself always runs to completion, the
// same way a migration in the paper's runtime is not preemptible
// mid-message.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		j.qspan.End()
		wait := s.cfg.Now().Sub(j.enqueued).Microseconds()
		s.queueWait.Observe(wait)
		if j.ctx.Err() != nil {
			s.expired.Inc()
			j.done <- result{status: http.StatusGatewayTimeout, errMsg: "deadline expired while queued", cache: j.cache, shed: "deadline_queued", queueWaitUS: wait}
			continue
		}
		ex := j.sp.StartChild("execute")
		s.inflight.Add(1)
		start := s.cfg.Now()
		rec, phase, err := s.execute(j.req, ex)
		s.inflight.Add(-1)
		runUS := s.cfg.Now().Sub(start).Microseconds()
		s.runLatency.Observe(runUS)
		if err != nil {
			ex.SetAttr("error", err.Error())
			ex.EndAborted()
			j.done <- result{status: http.StatusInternalServerError, errMsg: err.Error(), cache: j.cache, queueWaitUS: wait, runUS: runUS}
			continue
		}
		if phase != "" {
			ex.SetAttr("phase_cache", phase)
		}
		ex.SetSimCycles(rec.Cycles)
		ex.End()
		ser := j.sp.StartChild("serialize")
		body, merr := marshalRecord(rec)
		ser.End()
		if merr != nil {
			j.done <- result{status: http.StatusInternalServerError, errMsg: merr.Error(), cache: j.cache, queueWaitUS: wait, runUS: runUS}
			continue
		}
		s.cfg.Metrics.Counter("oldend_runs_total", metrics.L("benchmark", j.req.Benchmark)).Inc()
		s.simCycles.Add(rec.Cycles)
		e := newEntry(body, rec.TraceDigest)
		if !j.req.NoCache {
			s.cache.put(j.key, e)
		}
		j.done <- result{status: http.StatusOK, entry: e, cache: j.cache, phase: phase, queueWaitUS: wait, runUS: runUS}
	}
}

// marshalRecord renders the canonical response body: indented RunRecord
// JSON with a trailing newline, byte-stable for a given record (map keys
// sort), so a cache hit is byte-identical to the run that populated it.
func marshalRecord(rec record.RunRecord) ([]byte, error) {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Normalize validates the request and fills catalog defaults, returning
// the canonical configuration every downstream stage (cache key, ring,
// executor, log) agrees on and CacheKey is defined over.
func Normalize(q RunRequest) (RunRequest, error) {
	if q.Benchmark == "" {
		return q, fmt.Errorf("missing benchmark (GET /benchmarks lists them)")
	}
	info, ok := bench.Get(q.Benchmark)
	if !ok {
		return q, fmt.Errorf("unknown benchmark %q (GET /benchmarks lists them)", q.Benchmark)
	}
	if q.Scale < 0 {
		return q, fmt.Errorf("scale must be >= 0")
	}
	if q.Scale == 0 {
		q.Scale = bench.DefaultScale
	}
	if q.Scale < info.MinScale {
		return q, fmt.Errorf("%s at scale %d does not fit a processor's %d MiB heap section (smallest scale %d)", q.Benchmark, q.Scale, gaddr.MaxOffset>>20, info.MinScale)
	}
	if q.Baseline {
		q.Procs = 1
	}
	if q.Procs == 0 {
		q.Procs = bench.CatalogDefaultProcs
	}
	if q.Procs < 1 || q.Procs > bench.CatalogMaxProcs {
		return q, fmt.Errorf("procs %d out of range 1..%d", q.Procs, bench.CatalogMaxProcs)
	}
	if q.Scheme == "" {
		q.Scheme = coherence.LocalKnowledge.String()
	}
	if _, err := coherence.Parse(q.Scheme); err != nil {
		return q, err
	}
	if q.Mode == "" {
		q.Mode = rt.Heuristic.String()
	}
	if _, err := rt.ParseMode(q.Mode); err != nil {
		return q, err
	}
	if q.DeadlineMS < 0 {
		return q, fmt.Errorf("deadline_ms must be >= 0")
	}
	return q, nil
}

// clampDeadline resolves a request's deadline_ms against the server's
// default and ceiling — the one deadline policy /run and /batch share.
func (s *Server) clampDeadline(ms int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}
