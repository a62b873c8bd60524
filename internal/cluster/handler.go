package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/server"
)

// Handler returns the router's HTTP surface — deliberately the same
// shape as one oldend, so clients point at the cluster without changing
// anything:
//
//	POST /run             routed to the key's owning shard (probe → proxy → retry)
//	POST /batch           sharded sub-batches, answers merged in request order
//	GET  /benchmarks      any reachable replica (identical on all by contract)
//	GET  /metrics         the ROUTER's own registry (per-shard counters)
//	GET  /debug/requests  fan-out: every replica's view plus the router's, tagged by shard
//	GET  /debug/trace/id  fan-out: served by whichever replica retained the trace
//	GET  /healthz         router liveness
//	GET  /readyz          ready while at least one replica is ready (per-shard detail in the body)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", server.Only(http.MethodPost, rt.handleRun))
	mux.HandleFunc("/batch", server.Only(http.MethodPost, rt.handleBatch))
	mux.HandleFunc("/benchmarks", server.Only(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		st := server.RequestState(r)
		rep, sh, ok := rt.forward(r, st.Span, rt.names, rt.names[0], "/benchmarks", nil)
		if !ok {
			rt.unroutable503(w, "no reachable replica")
			return
		}
		st.Shard = sh.name
		serveReply(w, rep, sh.name)
	}))
	mux.HandleFunc("/metrics", server.Only(http.MethodGet, server.ServeMetrics(rt.cfg.Metrics)))
	mux.HandleFunc("/debug/requests", server.Only(http.MethodGet, rt.handleDebugRequests))
	mux.HandleFunc("/debug/trace/", server.Only(http.MethodGet, rt.handleDebugTrace))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", rt.handleReadyz)
	return server.Envelope{
		Prefix:    "oldenrouter",
		Metrics:   rt.cfg.Metrics,
		Tracer:    rt.cfg.Tracer,
		AccessLog: rt.log,
		Now:       rt.cfg.Now,
	}.Wrap(mux)
}

// peerReply is one replica's answer to a fan-out query.
type peerReply struct {
	reply
	err error
}

// fanout asks every replica the same GET concurrently and returns the
// answers in rt.names order, each bounded by peerTimeout. It bypasses the
// connection budgets and the down-marking on purpose: health checks and
// introspection must not be wedged by a saturated shard, nor count as
// proxied traffic.
func (rt *Router) fanout(ctx context.Context, path string) []peerReply {
	ctx, cancel := context.WithTimeout(ctx, peerTimeout)
	defer cancel()
	out := make([]peerReply, len(rt.names))
	var wg sync.WaitGroup
	for i, name := range rt.names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			out[i].reply, out[i].err = rt.send(ctx, rt.shards[name], http.MethodGet, path, nil, http.Header{})
		}(i, name)
	}
	wg.Wait()
	return out
}

// handleReadyz asks every replica for readiness. The router is ready
// while at least one replica is — a partial cluster degrades capacity,
// not availability.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	shards := make(map[string]string, len(rt.names))
	ready := 0
	for i, p := range rt.fanout(r.Context(), "/readyz") {
		p.release()
		switch {
		case p.err != nil:
			shards[rt.names[i]] = "down"
		case p.status == http.StatusOK:
			shards[rt.names[i]] = "ready"
			ready++
		default:
			shards[rt.names[i]] = "not_ready"
		}
	}
	body := map[string]any{"shards": shards, "ready_shards": ready}
	if ready == 0 {
		body["status"] = "no_ready_shards"
		w.Header().Set("Retry-After", server.RetryAfterSeconds(rt.cfg.RetryAfter))
		server.WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ready"
	server.WriteJSON(w, http.StatusOK, body)
}

// handleDebugRequests merges every replica's /debug/requests view with
// the router's own, tagging each replica's entries with its shard —
// cluster-mode tracing stays one curl, no per-shard spelunking.
func (rt *Router) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	shards := make(map[string]json.RawMessage, len(rt.names))
	for i, p := range rt.fanout(r.Context(), "/debug/requests") {
		if p.err != nil {
			p.body, _ = json.Marshal(map[string]string{"error": p.err.Error()})
		}
		shards[rt.names[i]] = p.body
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"router": map[string]any{
			"in_flight": rt.cfg.Tracer.InFlight(),
			"requests":  rt.cfg.Tracer.Requests(),
		},
		"shards": shards,
	})
}

// handleDebugTrace fans a trace-id lookup out to the replicas — the
// trace lives wherever the sampled request executed, which the id alone
// does not reveal — and serves the first hit with X-Oldend-Shard naming
// the replica that retained it. A replica whose export is too large to
// hold gets a 502 naming it. When no replica holds the id, the router's
// own retained tree (span tree of the routed request itself) answers;
// only then 404.
func (rt *Router) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if _, err := obs.ParseTraceID(idStr); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad trace id: "+err.Error())
		return
	}
	for i, p := range rt.fanout(r.Context(), r.URL.RequestURI()) {
		switch {
		case errors.Is(p.err, errReplyTooLarge):
			serveReply(w, badGateway(rt.names[i], p.err), rt.names[i])
			return
		case p.err == nil && p.status == http.StatusOK:
			serveReply(w, p.reply, rt.names[i])
			return
		}
	}
	if !server.ServeTrace(w, r, rt.cfg.Tracer, idStr) {
		server.WriteError(w, http.StatusNotFound, "trace not retained on any shard (unsampled or evicted)")
	}
}
