package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
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
	// VNodes is the virtual-node count per replica (0 = DefaultVNodes).
	VNodes int
	// ProbeOwners is R, the hot-key replication width: cacheable /run
	// requests rotate across the key's first R owners, and the router
	// probes those owners' caches (GET /cache/probe) before committing
	// an execution anywhere. 1 (the default) routes every key to its
	// primary owner only — maximum aggregate cache capacity, no
	// replication; raise it for skewed mixes where a few hot keys
	// deserve to be served from more than one shard.
	ProbeOwners int
	// VerifyEvery is K: every Kth routed execution whose primary answer
	// was a 200 is duplicated — synchronously — to a second replica, and
	// the two bodies plus trace digests must be byte-identical. 0
	// disables. This is the correctness gate determinism buys the
	// cluster: any two replicas asked the same question must agree, so a
	// mismatch is a real bug (nondeterminism, version skew, corruption),
	// counted in oldenrouter_verify_mismatch_total and logged.
	VerifyEvery int
	// MaxConnsPerReplica bounds concurrent requests (proxies, probes,
	// verify duplicates) the router holds open to one replica
	// (default 64). Excess requests wait; the bound is what keeps one
	// slow shard from absorbing the router's whole file-descriptor
	// budget.
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
	// Client substitutes the outbound HTTP client (tests); nil builds
	// one with no global timeout (per-request contexts bound everything).
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
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Tracer == nil {
		c.Tracer = obs.New(obs.Config{SampleEvery: c.SampleEvery, Now: c.Now})
	}
	return c
}

// shard is the router's per-replica state: the connection budget and the
// failure-cooldown clock.
type shard struct {
	name   string
	budget chan struct{}
	// downUntil is the unix-nano instant before which the shard is
	// skipped on the first routing pass. Connection failures set it;
	// any successful exchange clears it.
	downUntil atomic.Int64
}

// Router shards oldend traffic across replicas by the canonical
// run-config cache key. Create with NewRouter, mount Handler.
type Router struct {
	cfg    Config
	ring   *Ring
	shards map[string]*shard
	names  []string // ring order-independent replica list (config order)
	log    *server.AccessLogger

	rr      atomic.Uint64 // round-robin cursor over a key's first R owners
	verifyN atomic.Uint64 // every-Kth counter for cross-replica verify

	retries        *metrics.Counter
	unroutable     *metrics.Counter
	verifyMatch    *metrics.Counter
	verifyMismatch *metrics.Counter
	verifyErr      *metrics.Counter
}

// NewRouter builds the router and its ring.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
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
		rt.shards[name] = &shard{
			name:   name,
			budget: make(chan struct{}, cfg.MaxConnsPerReplica),
		}
	}
	m := cfg.Metrics
	m.SetHelp("oldenrouter_requests_total", "Requests answered by the router, by path and status code.")
	m.SetHelp("oldenrouter_proxied_total", "Requests proxied to a replica, by shard and status code.")
	m.SetHelp("oldenrouter_proxy_retries_total", "Proxy attempts retried on the next ring owner after a connection failure.")
	m.SetHelp("oldenrouter_unroutable_total", "Requests answered 503 because no owner of the key was reachable.")
	m.SetHelp("oldenrouter_probe_total", "Peer cache probes issued, by shard and outcome.")
	m.SetHelp("oldenrouter_verify_total", "Cross-replica verify duplicates, by outcome (byte-identity of two replicas' answers).")
	m.SetHelp("oldenrouter_verify_mismatch_total", "Cross-replica verify mismatches: two replicas answered the same key with different bytes. Any nonzero value is a determinism bug.")
	m.SetHelp("oldenrouter_shard_latency_us", "Wall-clock latency of proxied replica exchanges, in microseconds, by shard.")
	m.SetHelp("oldenrouter_replica_down_total", "Connection failures that marked a replica down for the cooldown, by shard.")
	m.SetHelp("oldenrouter_shards", "Replicas in the ring (static).")
	rt.retries = m.Counter("oldenrouter_proxy_retries_total")
	rt.unroutable = m.Counter("oldenrouter_unroutable_total")
	rt.verifyMatch = m.Counter("oldenrouter_verify_total", metrics.L("outcome", "match"))
	rt.verifyMismatch = m.Counter("oldenrouter_verify_mismatch_total")
	rt.verifyErr = m.Counter("oldenrouter_verify_total", metrics.L("outcome", "error"))
	m.RegisterFunc("oldenrouter_shards", metrics.KindGauge, func() int64 { return int64(len(rt.names)) })
	return rt, nil
}

// Metrics exposes the router's registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.cfg.Metrics }

// Ring exposes the router's ring (read-only; tests and the readyz
// handler use it).
func (rt *Router) Ring() *Ring { return rt.ring }

// alive reports whether the shard is not inside a failure cooldown.
func (rt *Router) alive(sh *shard) bool {
	return rt.cfg.Now().UnixNano() >= sh.downUntil.Load()
}

func (rt *Router) markDown(sh *shard) {
	sh.downUntil.Store(rt.cfg.Now().Add(rt.cfg.DownCooldown).UnixNano())
	rt.cfg.Metrics.Counter("oldenrouter_replica_down_total", metrics.L("shard", sh.name)).Inc()
}

func (rt *Router) markUp(sh *shard) { sh.downUntil.Store(0) }

// reply is one fully-read replica response: everything the router needs
// to serve, compare or discard it without holding a connection open.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// exchange performs one bounded request against a shard: acquire the
// shard's connection budget (waiting within ctx), send, read the whole
// body, release. A transport error marks the shard down; any HTTP
// response — including 5xx, and a body over maxReply, which comes back as
// errReplyTooLarge — marks it up, because a replica that answers is alive
// even when it answers badly.
func (rt *Router) exchange(ctx context.Context, sh *shard, method, path string, body []byte, hdr http.Header) (reply, error) {
	select {
	case sh.budget <- struct{}{}:
	case <-ctx.Done():
		return reply{}, ctx.Err()
	}
	defer func() { <-sh.budget }()

	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sh.name+path, rd)
	if err != nil {
		return reply{}, err
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	start := rt.cfg.Now()
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.markDown(sh)
		return reply{}, err
	}
	b, err := readReply(resp)
	if err != nil && !errors.Is(err, errReplyTooLarge) {
		rt.markDown(sh)
		return reply{}, err
	}
	rt.markUp(sh)
	rt.cfg.Metrics.Histogram("oldenrouter_shard_latency_us", metrics.L("shard", sh.name)).
		Observe(rt.cfg.Now().Sub(start).Microseconds())
	rt.cfg.Metrics.Counter("oldenrouter_proxied_total",
		metrics.L("shard", sh.name), metrics.L("code", strconv.Itoa(resp.StatusCode))).Inc()
	return reply{status: resp.StatusCode, header: resp.Header, body: b}, err
}

// maxReply caps the replica reply the router holds in memory.
const maxReply = 32 << 20

// errReplyTooLarge is a replica reply over maxReply. The replica answered,
// so it is not a connection failure: the router does not mark the shard
// down or retry the next owner, and it answers the client 502.
var errReplyTooLarge = fmt.Errorf("reply exceeds the %d-byte limit", maxReply)

// readReply reads a whole replica body and closes it: into one buffer of
// Content-Length bytes when the replica declared its length, else reading
// up to one byte past maxReply to tell a full reply from a cut one. A
// reply over maxReply is errReplyTooLarge, never a truncated body.
func readReply(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	n := resp.ContentLength
	if n > maxReply {
		return nil, errReplyTooLarge
	}
	if n >= 0 {
		b := make([]byte, n)
		_, err := io.ReadFull(resp.Body, b)
		return b, err
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxReply+1))
	if err == nil && len(b) > maxReply {
		return nil, errReplyTooLarge
	}
	return b, err
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
	for k, vs := range rep.header {
		if skippedHeaders[k] {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if w.Header().Get("X-Oldend-Shard") == "" {
		w.Header().Set("X-Oldend-Shard", shardName)
	}
	w.WriteHeader(rep.status)
	w.Write(rep.body)
}

// downstreamHeader builds the headers a proxied request carries: the
// original content type plus the trace chain — a fresh traceparent child
// of the router's span when the request is sampled (so the replica's
// span tree hangs off the router's), or the original traceparent
// verbatim when it is not.
func downstreamHeader(r *http.Request, sp *obs.Span) http.Header {
	h := http.Header{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	if sp.Sampled() {
		h.Set("traceparent", sp.Context().Traceparent())
	} else if tp := r.Header.Get("traceparent"); tp != "" {
		h.Set("traceparent", tp)
	}
	return h
}

// candidates orders the owners the proxy path will try: the chosen
// target first, then the remaining ring owners in preference order —
// live shards before ones inside a failure cooldown, so a down replica
// costs nothing until its cooldown expires but is still tried as the
// last resort.
func (rt *Router) candidates(owners []string, target string) []*shard {
	ordered := make([]*shard, 0, len(owners))
	ordered = append(ordered, rt.shards[target])
	for _, o := range owners {
		if o != target {
			ordered = append(ordered, rt.shards[o])
		}
	}
	live := make([]*shard, 0, len(ordered))
	var down []*shard
	for _, sh := range ordered {
		if rt.alive(sh) {
			live = append(live, sh)
		} else {
			down = append(down, sh)
		}
	}
	return append(live, down...)
}

// forward is the router's one remote execute step: try the ordered
// candidates, each attempt a proxy:<shard> span, retrying the next ring
// owner on connection failure — safe even after a half-sent request,
// because every forwarded path is deterministic and idempotent, the
// property the whole cluster design leans on. An HTTP answer of any
// status ends the chain; one too large to hold ends it as a 502. When no
// candidate answers, the request is counted unroutable and ok is false.
func (rt *Router) forward(r *http.Request, sp *obs.Span, owners []string, target, path string, body []byte) (reply, *shard, bool) {
	hdr := downstreamHeader(r, sp)
	for attempt, sh := range rt.candidates(owners, target) {
		if attempt > 0 {
			rt.retries.Inc()
		}
		ps := sp.StartChild("proxy:" + sh.name)
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
//     (primary owner when R == 1);
//  4. every Kth successful execution is duplicated to a second replica
//     and the two answers must be byte-identical (verify mode).
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer // the body as the prologue read it, forwarded verbatim
	req, key, err := server.DecodeRun(io.TeeReader(r.Body, &buf))
	if err != nil {
		server.WriteError(w, server.DecodeStatus(err), err.Error())
		return
	}
	body := buf.Bytes()
	owners := rt.ring.Owners(key, len(rt.names))
	st := server.RequestState(r)
	st.Key = key
	st.Benchmark = req.Benchmark

	cacheable := !req.NoCache && !req.Verify
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
				"/cache/probe?key="+url.QueryEscape(key), nil, downstreamHeader(r, ps))
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
			rt.cfg.Metrics.Counter("oldenrouter_probe_total",
				metrics.L("shard", sh.name), metrics.L("outcome", outcome)).Inc()
			if outcome == "hit" {
				st.Shard, st.Cache = sh.name, "hit"
				serveReply(w, rep, sh.name)
				return
			}
		}
	}

	rep, sh, ok := rt.forward(r, st.Span, owners, owners[ridx%len(owners)], "/run", body)
	if !ok {
		st.ShedReason = "no_owner_reachable"
		rt.unroutable503(w, fmt.Sprintf("no reachable replica for key %q (tried %d owners)", key, len(owners)))
		return
	}
	st.Shard = sh.name
	st.Cache = rep.header.Get("X-Oldend-Cache")
	if rep.status == http.StatusOK && cacheable && rt.cfg.VerifyEvery > 0 &&
		rt.verifyN.Add(1)%uint64(rt.cfg.VerifyEvery) == 0 {
		rt.verifyAgainstPeer(r, st.Span, owners, sh.name, body, rep)
	}
	serveReply(w, rep, sh.name)
}

// verifyAgainstPeer duplicates one already-served execution to the next
// distinct owner and demands byte-identity: same RunRecord bytes, same
// X-Oldend-Trace-Digest. The duplicate runs synchronously (the caller
// already holds the primary answer) so the metrics a smoke script
// scrapes after a sweep are settled. A mismatch serves the primary
// answer regardless — the alarm is the counter and the log line, the
// contract with the client is unchanged.
func (rt *Router) verifyAgainstPeer(r *http.Request, sp *obs.Span, owners []string, primary string, body []byte, prime reply) {
	var peer *shard
	for _, o := range owners {
		if o != primary && rt.alive(rt.shards[o]) {
			peer = rt.shards[o]
			break
		}
	}
	if peer == nil {
		return // single-replica ring or everyone else down: nothing to compare
	}
	vs := sp.StartChild("verify:" + peer.name)
	rep, err := rt.exchange(r.Context(), peer, http.MethodPost, "/run", body, downstreamHeader(r, vs))
	if err != nil || rep.status != http.StatusOK {
		rt.verifyErr.Inc()
		vs.EndAborted()
		return
	}
	primeDigest := prime.header.Get("X-Oldend-Trace-Digest")
	peerDigest := rep.header.Get("X-Oldend-Trace-Digest")
	if bytes.Equal(prime.body, rep.body) && primeDigest == peerDigest {
		rt.verifyMatch.Inc()
		vs.SetAttr("verify", "match")
		vs.End()
		return
	}
	rt.verifyMismatch.Inc()
	vs.SetAttr("verify", "mismatch")
	vs.EndAborted()
	rt.log.Error("cross-replica verify mismatch",
		slog.String("primary", primary),
		slog.String("peer", peer.name),
		slog.String("primary_digest", primeDigest),
		slog.String("peer_digest", peerDigest),
		slog.Int("primary_bytes", len(prime.body)),
		slog.Int("peer_bytes", len(rep.body)),
	)
}

// handleBatch shards a /batch body: the replicas' own prologue
// (server.DecodeBatch), the valid runs grouped by primary owner, one
// sub-batch forwarded per shard concurrently, and the per-item answers
// merged back into request order. Invalid items fail 400 item-locally,
// exactly as the replica would have answered; a shard whose whole
// exchange fails (after retrying the next ring owner) yields 503 items.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	breq, items, err := server.DecodeBatch(r.Body)
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
	sp := server.RequestState(r).Span
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
			rep, _, ok := rt.forward(r, sp, owners, owner, "/batch", body)
			if !ok {
				fail(http.StatusServiceUnavailable, "no reachable replica for batch group")
				return
			}
			var subItems []server.BatchItem
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

// proxyAny forwards a shard-agnostic, bodiless request (the catalog) to
// the first reachable replica.
func (rt *Router) proxyAny(w http.ResponseWriter, r *http.Request, path string) {
	st := server.RequestState(r)
	rep, sh, ok := rt.forward(r, st.Span, rt.names, rt.names[0], path, nil)
	if !ok {
		rt.unroutable503(w, "no reachable replica")
		return
	}
	st.Shard = sh.name
	serveReply(w, rep, sh.name)
}
