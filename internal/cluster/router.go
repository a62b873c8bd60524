package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
)

// Config tunes a Router. Replicas is the only required field.
type Config struct {
	// Replicas is the static replica list: base URLs (http://host:port)
	// of the oldend processes the ring shards over.
	Replicas []string
	// ProbeOwners is R, the hot-key replication width: cacheable /run
	// requests rotate across the key's first R owners, probing their
	// caches (GET /cache/probe) before executing anywhere. 1 (the
	// default) routes every key to its primary owner only.
	ProbeOwners int
	// MaxConnsPerReplica bounds the requests (proxies and probes) open
	// to one replica at once (default 64); excess ones wait, so one slow
	// shard cannot take every file descriptor.
	MaxConnsPerReplica int
	// RetryAfter is the backoff hint attached to 503 responses when no
	// owner of a key is reachable (default 1s).
	RetryAfter time.Duration
	// DownCooldown is how long a replica stays marked down after a
	// connection failure before the router tries it again (default 2s).
	DownCooldown time.Duration
	// Metrics receives the router's counters; a fresh registry when nil.
	Metrics *metrics.Registry
	// Tracer owns request sampling; when nil one is built from
	// SampleEvery, as in the server.
	Tracer *obs.Tracer
	// SampleEvery is head sampling when Tracer is nil (same semantics as
	// the server's flag of the same name).
	SampleEvery int
	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog io.Writer
	// Client substitutes the outbound transport (tests): only its Transport
	// is used (http.DefaultTransport when nil), and 3xx answers are relayed.
	Client *http.Client
	// Now substitutes the wall clock (tests).
	Now func() time.Time
}

// peerTimeout caps one auxiliary exchange with a replica — a cache probe
// or a fan-out query. Those are optimizations and introspection; they must
// never stall the routed path.
const peerTimeout = 2 * time.Second

func (c Config) withDefaults() Config {
	if c.ProbeOwners <= 0 {
		c.ProbeOwners = 1
	}
	if c.MaxConnsPerReplica <= 0 {
		c.MaxConnsPerReplica = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = 2 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Client == nil || c.Client.Transport == nil {
		c.Client = &http.Client{Transport: http.DefaultTransport}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Tracer == nil {
		c.Tracer = obs.New(obs.Config{SampleEvery: c.SampleEvery, Now: c.Now})
	}
	return c
}

// shard is the router's per-replica state: its URLs, parsed once, the
// connection budget, the failure-cooldown clock and its metric handles.
type shard struct {
	name      string
	url, run  *url.URL
	proxySpan string
	budget    chan struct{}
	// downUntil is the unix-nano instant before which the shard is
	// skipped on the first routing pass. Connection failures set it;
	// any successful exchange clears it.
	downUntil atomic.Int64
	latency   func() *metrics.Histogram
	proxied   metrics.Handles[int, *metrics.Counter]    // by reply status
	probes    metrics.Handles[string, *metrics.Counter] // by probe outcome
}

// Router shards oldend traffic across replicas by the canonical
// run-config cache key. Create with NewRouter, mount Handler.
type Router struct {
	cfg    Config
	ring   *Ring
	shards map[string]*shard
	names  []string // ring order-independent replica list (config order)
	log    *server.AccessLogger

	rr atomic.Uint64 // round-robin cursor over a key's first R owners

	retries    *metrics.Counter
	unroutable *metrics.Counter
}

// NewRouter builds the router and its ring.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Replicas, 0)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		shards: make(map[string]*shard, len(cfg.Replicas)),
		names:  ring.Replicas(),
	}
	if cfg.AccessLog != nil {
		rt.log = server.NewAccessLogger(cfg.AccessLog)
	}
	for _, name := range rt.names {
		u, err := url.Parse(name)
		if err != nil {
			return nil, err
		}
		run := *u
		run.Path += "/run"
		rt.shards[name] = &shard{name: name, url: u, run: &run, proxySpan: "proxy:" + name,
			budget: make(chan struct{}, cfg.MaxConnsPerReplica),
			latency: sync.OnceValue(func() *metrics.Histogram {
				return cfg.Metrics.Histogram("oldenrouter_shard_latency_us", metrics.L("shard", name))
			})}
	}
	m := cfg.Metrics
	m.SetHelp("oldenrouter_requests_total", "Requests answered by the router, by path and status code.")
	m.SetHelp("oldenrouter_proxied_total", "Requests proxied to a replica, by shard and status code.")
	m.SetHelp("oldenrouter_proxy_retries_total", "Proxy attempts retried on the next ring owner after a connection failure.")
	m.SetHelp("oldenrouter_unroutable_total", "Requests answered 503 because no owner of the key was reachable.")
	m.SetHelp("oldenrouter_probe_total", "Peer cache probes issued, by shard and outcome.")
	m.SetHelp("oldenrouter_shard_latency_us", "Wall-clock latency of proxied replica exchanges, in microseconds, by shard.")
	m.SetHelp("oldenrouter_replica_down_total", "Connection failures that marked a replica down for the cooldown, by shard.")
	m.SetHelp("oldenrouter_shards", "Replicas in the ring (static).")
	rt.retries = m.Counter("oldenrouter_proxy_retries_total")
	rt.unroutable = m.Counter("oldenrouter_unroutable_total")
	m.RegisterFunc("oldenrouter_shards", metrics.KindGauge, func() int64 { return int64(len(rt.names)) })
	return rt, nil
}

// Metrics exposes the router's registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.cfg.Metrics }

// alive reports whether the shard is not inside a failure cooldown; only
// a shard that has been marked down reads the clock.
func (rt *Router) alive(sh *shard) bool {
	d := sh.downUntil.Load()
	return d == 0 || rt.cfg.Now().UnixNano() >= d
}

func (rt *Router) markDown(sh *shard) {
	sh.downUntil.Store(rt.cfg.Now().Add(rt.cfg.DownCooldown).UnixNano())
	rt.cfg.Metrics.Counter("oldenrouter_replica_down_total", metrics.L("shard", sh.name)).Inc()
}

// reply is one fully-read replica response: everything the router needs
// to serve or discard it without holding a connection open.
type reply struct {
	status int
	header http.Header
	body   []byte
	buf    *[]byte // body's array when it came from replyBufs, else nil
}

// replyBufs holds the arrays replies of up to 64 KiB are read into. Each
// reader releases its reply: serveReply once the client has the bytes,
// probe, batch and readyz after reading it.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// release hands a pooled body back; nothing may read rep.body after it.
func (rep reply) release() {
	if rep.buf != nil {
		replyBufs.Put(rep.buf)
	}
}

// exchange is one request to a shard inside its connection budget
// (waiting within ctx). A transport error marks the shard down; any HTTP
// answer, a 5xx or one over maxReply (errReplyTooLarge) too, marks it up:
// a replica that answers is alive even when it answers badly.
func (rt *Router) exchange(ctx context.Context, sh *shard, method, path string, body []byte, hdr http.Header) (reply, error) {
	select {
	case sh.budget <- struct{}{}:
	case <-ctx.Done():
		return reply{}, ctx.Err()
	}
	defer func() { <-sh.budget }()

	start := rt.cfg.Now()
	rep, err := rt.send(ctx, sh, method, path, body, hdr)
	if err != nil && !errors.Is(err, errReplyTooLarge) {
		rt.markDown(sh)
		return reply{}, err
	}
	sh.downUntil.Store(0) // it answered: up
	sh.latency().Observe(rt.cfg.Now().Sub(start).Microseconds())
	sh.proxied.Get(rep.status, func(code int) *metrics.Counter {
		return rt.cfg.Metrics.Counter("oldenrouter_proxied_total", metrics.L("shard", sh.name), metrics.L("code", strconv.Itoa(code)))
	}).Inc()
	return rep, err
}

// send is the outbound step exchange and fanout share: path (and query) on
// the shard's parsed URL, sent with RoundTrip on the router's transport as
// a reverse proxy sends (3xx relayed, deadline from ctx), the reply read
// whole. A transport error reads as http.Client's would.
func (rt *Router) send(ctx context.Context, sh *shard, method, path string, body []byte, hdr http.Header) (reply, error) {
	u := sh.run // shared by every /run request; never written
	if path != "/run" {
		p, q, _ := strings.Cut(path, "?")
		v := *sh.url
		v.Path, v.RawQuery = v.Path+p, q
		u = &v
	}
	req := (&http.Request{
		Method: method, URL: u, Host: u.Host, Header: hdr,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}).WithContext(ctx)
	if body != nil {
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return sentBody{bytes.NewReader(body)}, nil } // replay on a reused connection
		req.Body, _ = req.GetBody()
	}
	resp, err := rt.cfg.Client.Transport.RoundTrip(req)
	if err != nil {
		return reply{}, &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: u.String(), Err: err}
	}
	return readReply(resp)
}

// sentBody is a request body one pointer wide: it boxes without allocating.
type sentBody struct{ *bytes.Reader }

func (sentBody) Close() error { return nil }

// maxReply caps the replica reply the router holds in memory.
const maxReply = 32 << 20

// errReplyTooLarge is a replica reply over maxReply. The replica answered,
// so it is not a connection failure: the router does not mark the shard
// down or retry the next owner, and it answers the client 502.
var errReplyTooLarge = fmt.Errorf("reply exceeds the %d-byte limit", maxReply)

// readReply reads a whole replica response and closes its body: into a
// buffer of the declared Content-Length (pooled up to 64 KiB), else up to
// one byte past maxReply to tell a full reply from a cut one. Over
// maxReply is errReplyTooLarge, cut short an error: never a short body.
func readReply(resp *http.Response) (reply, error) {
	defer resp.Body.Close()
	rep := reply{status: resp.StatusCode, header: resp.Header}
	n := resp.ContentLength
	switch {
	case n > maxReply:
		return rep, errReplyTooLarge
	case n > 64<<10:
		rep.body = make([]byte, n)
	case n >= 0:
		rep.buf = replyBufs.Get().(*[]byte)
		*rep.buf = slices.Grow((*rep.buf)[:0], int(n))[:n]
		rep.body = *rep.buf
	default:
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxReply+1))
		if err == nil && len(b) > maxReply {
			return rep, errReplyTooLarge
		}
		rep.body = b
		return rep, err
	}
	_, err := io.ReadFull(resp.Body, rep.body)
	return rep, err
}

// badGateway is what the router serves in place of a replica reply it
// would not hold: a 502 naming the shard, shaped like server.WriteError's.
func badGateway(shard string, err error) reply {
	body, _ := json.Marshal(map[string]string{"error": "replica " + shard + ": " + err.Error()}) // a string map always marshals
	return reply{
		status: http.StatusBadGateway,
		header: http.Header{"Content-Type": {"application/json"}},
		body:   append(body, '\n'),
	}
}

// skippedHeaders are response headers the router owns (trace identity is
// stamped before the handler runs) or that do not survive re-framing.
var skippedHeaders = map[string]bool{
	"Connection":        true,
	"Transfer-Encoding": true,
	"Content-Length":    true,
	"Date":              true,
	"X-Request-Id":      true,
	"X-Oldend-Trace-Id": true,
}

// serveReply writes a replica's response through to the client,
// preserving every replica header (X-Oldend-Cache, X-Oldend-Phase-Cache,
// X-Oldend-Trace-Digest, Retry-After, ...) and guaranteeing
// X-Oldend-Shard names the shard that answered even when the replica
// itself was not configured with a shard name.
func serveReply(w http.ResponseWriter, rep reply, shardName string) {
	h := w.Header()
	for k, vs := range rep.header { // a parsed header's keys are canonical
		if !skippedHeaders[k] {
			h[k] = vs
		}
	}
	if len(h["X-Oldend-Shard"]) == 0 {
		h["X-Oldend-Shard"] = []string{shardName}
	}
	w.WriteHeader(rep.status)
	w.Write(rep.body)
	rep.release()
}

// downstreamHeader builds the headers a proxied request carries: the
// original content type plus the trace chain — a fresh traceparent child
// of sp when the request is sampled (so the replica's span tree hangs off
// the router's), else st's unsampled one, so the two access lines join on
// the trace id.
func downstreamHeader(r *http.Request, st *server.ReqState, sp *obs.Span) http.Header {
	h := make(http.Header, 2)
	if ct := r.Header["Content-Type"]; len(ct) > 0 {
		h["Content-Type"] = ct[:1]
	}
	h["Traceparent"] = st.Traceparent
	if sp.Sampled() {
		h["Traceparent"] = []string{sp.Context().Traceparent()}
	}
	return h
}

// candidates orders the owners the proxy path will try: the chosen
// target first, then the remaining ring owners in preference order —
// live shards before ones inside a failure cooldown, so a down replica
// costs nothing until its cooldown expires but is still tried as the
// last resort. They are appended to dst.
func (rt *Router) candidates(dst []*shard, owners []string, target string) []*shard {
	ordered := append(dst, rt.shards[target])
	for _, o := range owners {
		if o != target {
			ordered = append(ordered, rt.shards[o])
		}
	}
	live := 0 // a stable partition in place: each live shard moves up past the down ones
	for i, sh := range ordered {
		if rt.alive(sh) {
			copy(ordered[live+1:i+1], ordered[live:i])
			ordered[live] = sh
			live++
		}
	}
	return ordered
}

// forward is the router's one remote execute step: try the ordered
// candidates, each a proxy:<shard> span under st's, retrying the next
// ring owner on connection failure (safe after a half-sent request: every
// forwarded path is deterministic and idempotent). Any HTTP answer ends
// the chain, one too large to hold as a 502; if none comes, ok is false.
func (rt *Router) forward(r *http.Request, st *server.ReqState, owners []string, target, path string, body []byte) (reply, *shard, bool) {
	hdr := downstreamHeader(r, st, st.Span)
	var buf [4]*shard // holds a chain of up to four on the stack
	for attempt, sh := range rt.candidates(buf[:0], owners, target) {
		if attempt > 0 {
			rt.retries.Inc()
		}
		ps := st.Span.StartChild(sh.proxySpan)
		rep, err := rt.exchange(r.Context(), sh, r.Method, path, body, hdr)
		if err != nil {
			ps.SetAttr("error", err.Error())
			ps.EndAborted()
			if errors.Is(err, errReplyTooLarge) {
				return badGateway(sh.name, err), sh, true
			}
			if r.Context().Err() != nil {
				break // the client is gone; stop burning replicas
			}
			continue
		}
		ps.SetAttrInt("status", int64(rep.status))
		ps.End()
		return rep, sh, true
	}
	rt.unroutable.Inc()
	return reply{}, nil, false
}

// unroutable503 answers a request forward could not place.
func (rt *Router) unroutable503(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", server.RetryAfterSeconds(rt.cfg.RetryAfter))
	server.WriteError(w, http.StatusServiceUnavailable, msg)
}

// handleRun is the replica's /run pipeline with a remote execute step:
//
//  1. the same prologue (server.DecodeRun), so the ring hashes exactly the
//     string the replica caches under;
//  2. for cacheable requests with ProbeOwners > 1, probe the key's first
//     R owners' caches and serve the first hit — hot keys end up
//     resident on R shards and any of them can answer;
//  3. otherwise forward to the round-robin target among those owners
//     (primary owner when R == 1).
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	req, key, body, err := server.DecodeRun(r.Body, r.ContentLength) // body is forwarded verbatim
	if err != nil {
		server.WriteError(w, server.DecodeStatus(err), err.Error())
		return
	}
	owners := rt.ring.Owners(key, len(rt.names))
	st := server.RequestState(w)
	st.Key = key
	st.Benchmark = req.Benchmark

	cacheable := !req.NoCache
	ridx := 0
	nProbe := min(rt.cfg.ProbeOwners, len(owners))
	if cacheable && nProbe > 1 {
		ridx = int(rt.rr.Add(1) % uint64(nProbe))
		// Probe phase: ask the R owners (starting at the rotation point,
		// so probe load spreads too) before executing anywhere.
		for i := 0; i < nProbe; i++ {
			sh := rt.shards[owners[(ridx+i)%nProbe]]
			if !rt.alive(sh) {
				continue
			}
			ps := st.Span.StartChild("probe:" + sh.name)
			pctx, cancel := context.WithTimeout(r.Context(), peerTimeout)
			rep, err := rt.exchange(pctx, sh, http.MethodGet,
				"/cache/probe?key="+url.QueryEscape(key), nil, downstreamHeader(r, st, ps))
			cancel()
			outcome := "miss"
			switch {
			case err != nil:
				outcome = "error"
				ps.EndAborted()
			case rep.status == http.StatusOK:
				outcome = "hit"
				ps.End()
			default:
				ps.End()
			}
			sh.probes.Get(outcome, func(outcome string) *metrics.Counter {
				return rt.cfg.Metrics.Counter("oldenrouter_probe_total", metrics.L("shard", sh.name), metrics.L("outcome", outcome))
			}).Inc()
			if outcome == "hit" {
				st.Shard, st.Cache = sh.name, "hit"
				serveReply(w, rep, sh.name)
				return
			}
			rep.release()
		}
	}

	rep, sh, ok := rt.forward(r, st, owners, owners[ridx%len(owners)], "/run", body)
	if !ok {
		st.ShedReason = "no_owner_reachable"
		rt.unroutable503(w, fmt.Sprintf("no reachable replica for key %q (tried %d owners)", key, len(owners)))
		return
	}
	st.Shard = sh.name
	st.Cache = rep.header.Get("X-Oldend-Cache")
	serveReply(w, rep, sh.name)
}

// handleBatch shards a /batch body: the replicas' prologue
// (server.DecodeBatch), the valid runs grouped by primary owner, one
// sub-batch per shard forwarded concurrently, the items merged back in
// request order. Invalid items fail 400 item-locally, as on a replica;
// a group no owner answers yields 503 items.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	breq, items, err := server.DecodeBatch(r.Body, r.ContentLength)
	if err != nil {
		server.WriteError(w, server.DecodeStatus(err), err.Error())
		return
	}
	groups := map[string][]int{} // primary owner -> original indices
	for i := range items {
		if items[i].Status == 0 {
			owner := rt.ring.Owner(items[i].Key)
			groups[owner] = append(groups[owner], i)
		}
	}
	st := server.RequestState(w)
	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			fail := func(status int, msg string) {
				for _, i := range idxs { // groups are disjoint: no lock needed
					items[i].Status, items[i].Error = status, msg
				}
			}
			sub := server.BatchRequest{Runs: make([]server.RunRequest, len(idxs))}
			for j, i := range idxs {
				sub.Runs[j] = breq.Runs[i]
			}
			body, err := json.Marshal(sub)
			if err != nil {
				fail(http.StatusInternalServerError, err.Error())
				return
			}
			// Retry chain for the sub-batch: the group's owner first, then
			// the remaining ring owners of the group's first key — any
			// replica computes the same answers, so fallback is safe.
			owners := rt.ring.Owners(items[idxs[0]].Key, len(rt.names))
			rep, _, ok := rt.forward(r, st, owners, owner, "/batch", body)
			if !ok {
				fail(http.StatusServiceUnavailable, "no reachable replica for batch group")
				return
			}
			var subItems []server.BatchItem
			defer rep.release() // Unmarshal copies what it keeps
			if rep.status != http.StatusOK || json.Unmarshal(rep.body, &subItems) != nil || len(subItems) != len(idxs) {
				fail(http.StatusBadGateway, fmt.Sprintf("replica %s answered batch with status %d", owner, rep.status))
				return
			}
			for j, i := range idxs {
				items[i] = subItems[j]
			}
		}(owner, idxs)
	}
	wg.Wait()
	server.WriteBatch(w, items, rt.cfg.RetryAfter, fmt.Sprintf(" shards=%d", len(groups)))
}
