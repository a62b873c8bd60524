package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// BatchRequest is the POST /batch body: a set of run configurations to
// resolve together. Exact duplicates collapse onto one run; the rest go
// through /run's stages concurrently, so configurations sharing a build
// key share one build in the phase cache.
type BatchRequest struct {
	Runs []RunRequest `json:"runs"`
	// DeadlineMS caps each run's time in the service, like the /run
	// field of the same name.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// BatchItem is one run's outcome within a /batch response, in request
// order. Status is the per-item HTTP status the same configuration would
// have received from /run.
type BatchItem struct {
	Benchmark  string          `json:"benchmark,omitempty"`
	Key        string          `json:"key,omitempty"`
	Status     int             `json:"status"`
	Cache      string          `json:"cache,omitempty"`
	PhaseCache string          `json:"phase_cache,omitempty"`
	Error      string          `json:"error,omitempty"`
	Record     json.RawMessage `json:"record,omitempty"`
}

// fill renders a run result into the item — the /batch counterpart of
// writeRun.
func (it *BatchItem) fill(res result) {
	it.Status = res.status
	it.Cache = res.cache
	it.PhaseCache = res.phase
	if res.status != http.StatusOK {
		it.Error = res.errMsg
		return
	}
	it.Record = json.RawMessage(res.entry.body)
}

// DecodeBatch is the /batch prologue replica and router share: read the
// body of declared length n, decode, refuse an empty batch, and
// canonicalise every run exactly as DecodeRun would. On return Runs[i] is
// the normalized configuration (the batch deadline folded in) and
// items[i] names its Benchmark and Key — or, for an invalid run, is the
// item-local 400 the same configuration would have received from /run.
func DecodeBatch(body io.Reader, n int64) (BatchRequest, []BatchItem, error) {
	var breq BatchRequest
	b, err := readBody(body, n)
	if err != nil {
		return breq, nil, err
	}
	if err := decodeJSON(b, &breq); err != nil {
		return breq, nil, err
	}
	if len(breq.Runs) == 0 {
		return breq, nil, fmt.Errorf("empty batch (runs is required)")
	}
	items := make([]BatchItem, len(breq.Runs))
	for i, q := range breq.Runs {
		nq, err := Normalize(q)
		if err != nil {
			items[i] = BatchItem{Benchmark: q.Benchmark, Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		if breq.DeadlineMS > 0 && nq.DeadlineMS == 0 {
			nq.DeadlineMS = breq.DeadlineMS
		}
		breq.Runs[i] = nq
		items[i] = BatchItem{Benchmark: nq.Benchmark, Key: CacheKey(nq)}
	}
	return breq, items, nil
}

// WriteBatch answers a /batch request with its items in request order:
// Retry-After when any item was shed (429/503), and the X-Oldend-Batch
// summary (suffix lets the router append its shard count).
func WriteBatch(w http.ResponseWriter, items []BatchItem, retryAfter time.Duration, suffix string) {
	shed := false
	cacheHits, phaseHits := 0, 0
	for i := range items {
		switch items[i].Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			shed = true
		}
		if items[i].Cache == "hit" || items[i].Cache == "dedup" {
			cacheHits++
		}
		if items[i].PhaseCache == "hit" {
			phaseHits++
		}
	}
	if shed {
		w.Header().Set("Retry-After", RetryAfterSeconds(retryAfter))
	}
	w.Header().Set("X-Oldend-Batch",
		fmt.Sprintf("runs=%d cache-hits=%d phase-hits=%d%s", len(items), cacheHits, phaseHits, suffix))
	WriteJSON(w, http.StatusOK, items)
}

// handleBatch resolves a configuration set in one request:
//
//  1. normalize every run; invalid ones fail item-locally with 400;
//  2. collapse exact duplicates onto one execution;
//  3. send every unique run concurrently through /run's two stages: the
//     result cache (unless no_cache), then the worker pool;
//  4. answer in request order with per-item status, cache dispositions
//     and records.
//
// The bounded worker pool is the only execution throttle, and the phase
// cache gives runs that share a build key one build between them.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	breq, items, err := DecodeBatch(r.Body, r.ContentLength)
	if err != nil {
		WriteError(w, DecodeStatus(err), err.Error())
		return
	}
	reqs := breq.Runs
	if len(reqs) > s.cfg.QueueDepth {
		WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds queue depth %d", len(reqs), s.cfg.QueueDepth))
		return
	}

	st := RequestState(w)
	first := map[string]int{} // key -> index of the item that executes it
	var wg sync.WaitGroup
	for i := range items {
		if items[i].Status != 0 {
			continue // invalid: already answered item-locally
		}
		key := items[i].Key
		if _, dup := first[key]; dup {
			items[i].Cache = "dedup"
			continue
		}
		first[key] = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.runBatchItem(r.Context(), st, reqs[i], &items[i])
		}()
	}
	wg.Wait()

	// Fill duplicates from the item that executed their key.
	for i := range items {
		if items[i].Cache == "dedup" {
			src := items[first[items[i].Key]]
			items[i].Status, items[i].Error, items[i].Record = src.Status, src.Error, src.Record
		}
	}
	WriteBatch(w, items, s.cfg.RetryAfter, "")
}

// runBatchItem resolves one normalized configuration as /run does — the
// result cache unless no_cache, then the same admission point — and fills
// the item in place. On sampled batch requests each submitted item hangs a
// "run:<benchmark>" span off the request root, so one batch trace shows
// every item's queue wait and execution side by side.
func (s *Server) runBatchItem(ctx context.Context, st *ReqState, req RunRequest, item *BatchItem) {
	if !req.NoCache {
		if res, ok := s.lookup(item.Key, s.cacheHits, s.cacheMisses); ok {
			item.fill(res)
			return
		}
	}
	isp := st.Span.StartChild("run:" + req.Benchmark)
	isp.SetAttr("key", item.Key)
	res := s.submit(ctx, isp, req, item.Key)
	if res.cache == "" { // refused at admission, or the deadline beat the worker
		isp.SetAttr("shed_reason", res.shed)
		isp.EndAborted()
	} else {
		isp.SetAttr("cache", res.cache)
		isp.End()
	}
	item.fill(res)
}
