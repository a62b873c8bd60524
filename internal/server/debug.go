package server

import (
	"net/http"
	"strings"

	"repro/internal/obs"
)

// This file is oldend's live introspection surface. /debug/requests
// answers "what is the server doing right now and what was slow lately"
// without any external tooling; /debug/trace/<id> turns one sampled
// request into a merged Chrome trace — service spans over wall-clock
// time and the run's simulated cache events over simulated cycles in
// one file — or a JSON span tree for programmatic consumers.

// handleDebugRequests serves the introspection ring: in-flight requests
// first, then the last N finished ones, slowest first. Sampled entries
// carry the dominant span name and depth, so a glance answers "where
// did the time go" before anyone opens a trace.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"in_flight": s.cfg.Tracer.InFlight(),
		"requests":  s.cfg.Tracer.Requests(),
	})
}

// handleDebugTrace serves one retained trace by id:
//
//	GET /debug/trace/<32-hex id>              merged Chrome trace_event JSON
//	GET /debug/trace/<32-hex id>?format=tree  nested span-tree JSON
//
// Only sampled requests are retained (the tracer's 64 newest), so a 404
// means the id was never sampled or has been evicted — the access log
// line with that trace_id still exists either way.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if _, err := obs.ParseTraceID(idStr); err != nil {
		WriteError(w, http.StatusBadRequest, "bad trace id: "+err.Error())
		return
	}
	if !ServeTrace(w, r, s.cfg.Tracer, idStr) {
		WriteError(w, http.StatusNotFound, "trace not retained (unsampled or evicted)")
	}
}

// ServeTrace serves the tree tr retains under id, in the format r asks
// for, and reports whether tr held it; it writes nothing when it did not.
func ServeTrace(w http.ResponseWriter, r *http.Request, tr *obs.Tracer, id string) bool {
	root, ok := tr.Lookup(id)
	switch {
	case !ok:
		return false
	case r.URL.Query().Get("format") == "tree":
		WriteJSON(w, http.StatusOK, obs.Tree(root))
	default:
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChrome(w, root) // the headers are gone: a failed write can only cut the body short
	}
	return true
}
