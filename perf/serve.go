package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/bench/record"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/server"
	"repro/perf/load"
	"repro/perf/memnet"
)

// stackShape says how a serve workload wires the service.
type stackShape struct {
	replicas int
	workers  int // per replica
	// probeOwners is the router's ProbeOwners; 0 means no router: the
	// client talks to the one replica directly.
	probeOwners int
}

// stack is the service as one workload sees it: replicas, optionally a
// router in front of them, and the in-memory transport between the two.
// Client → router → replica is function calls all the way down.
type stack struct {
	servers  []*server.Server
	hosts    []string
	net      *memnet.Transport
	router   *cluster.Router
	routerTr *obs.Tracer
	entry    http.Handler
	ls       *layerSamples // non-nil on a traced pass
	base     tally         // the counters when the timed region began
}

// newStack builds the service. With ls set it is the traced build: the
// router and the replicas sample every request, and the benchmark's own
// span recorder is wrapped around the router handler, the transport and
// each replica handler. Without it sampling is off and nothing is wrapped.
func newStack(shape stackShape, ls *layerSamples) *stack {
	sample := -1
	if ls != nil {
		sample = 1
	}
	st := &stack{net: memnet.New(), ls: ls}
	var urls []string
	for i := 0; i < shape.replicas; i++ {
		host := fmt.Sprintf("r%d", i)
		srv := server.New(server.Config{Workers: shape.workers, ShardName: host, SampleEvery: sample})
		h := srv.Handler()
		if ls != nil {
			h = tracedHandler("replica:"+host, h)
		}
		if i == 0 {
			st.entry = h
		}
		st.net.Handle(host, h)
		st.servers = append(st.servers, srv)
		st.hosts = append(st.hosts, host)
		urls = append(urls, "http://"+host)
	}
	if shape.probeOwners > 0 {
		var transport http.RoundTripper = st.net
		if ls != nil {
			transport = tracedTransport{st.net}
		}
		st.routerTr = obs.New(obs.Config{SampleEvery: sample})
		router, err := cluster.NewRouter(cluster.Config{
			Replicas:    urls,
			ProbeOwners: shape.probeOwners,
			Tracer:      st.routerTr,
			Client:      &http.Client{Transport: transport},
		})
		if err != nil {
			panic(err)
		}
		st.router = router
		st.entry = router.Handler()
		if ls != nil {
			st.entry = tracedHandler("router", st.entry)
		}
	}
	return st
}

// close drains the replicas' worker pools.
func (st *stack) close() {
	for _, srv := range st.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			panic(fmt.Sprintf("perf: replica did not drain: %v", err))
		}
	}
}

var (
	runURL      = &url.URL{Scheme: "http", Host: "oldend", Path: "/run"}
	batchURL    = &url.URL{Scheme: "http", Host: "oldend", Path: "/batch"}
	jsonHeaders = http.Header{"Content-Type": {"application/json"}}
)

// client is one requester's reusable state: response recorder, body reader.
type client struct {
	rec  memnet.Recorder
	body bytes.Reader
}

var clientPool = sync.Pool{New: func() any { return new(client) }}

// post sends one request into the stack's entry handler on the calling
// goroutine and returns the client holding the response; the caller hands
// it back with clientPool.Put once it has read what it needs. On a traced
// pass the request carries a fresh trace whose root span covers exactly
// the handler call.
func (st *stack) post(u *url.URL, body []byte) (*client, *reqTrace) {
	c := clientPool.Get().(*client)
	c.rec.Reset()
	c.body.Reset(body)
	req := &http.Request{
		Method: http.MethodPost, URL: u, Header: jsonHeaders,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Body: io.NopCloser(&c.body), ContentLength: int64(len(body)),
	}
	if st.ls == nil {
		st.entry.ServeHTTP(&c.rec, req)
		return c, nil
	}
	tr := st.ls.request()
	root := tr.begin(0, "client")
	st.entry.ServeHTTP(&c.rec, req.WithContext(withSpan(context.Background(), tr, root)))
	tr.end(root)
	return c, tr
}

// tally is the service's own bookkeeping at one instant, read from the
// replicas' and the router's registries and the transport's counters.
type tally struct {
	hits, misses, phaseHits, phaseMisses int64
	probes, probeHits, retries           int64
	trips                                map[string]int64
}

func (st *stack) tally() tally {
	t := tally{trips: map[string]int64{}}
	for _, srv := range st.servers {
		reg := srv.Metrics().Snapshot()
		t.hits += sumMetric(reg, "oldend_cache_hits_total") + sumMetric(reg, "oldend_cache_probe_total", metrics.L("outcome", "hit"))
		t.misses += sumMetric(reg, "oldend_cache_misses_total")
		t.phaseHits += sumMetric(reg, "oldend_phase_cache_hits_total")
		t.phaseMisses += sumMetric(reg, "oldend_phase_cache_misses_total")
	}
	if st.router != nil {
		reg := st.router.Metrics().Snapshot()
		t.probes = sumMetric(reg, "oldenrouter_probe_total")
		t.probeHits = sumMetric(reg, "oldenrouter_probe_total", metrics.L("outcome", "hit"))
		t.retries = sumMetric(reg, "oldenrouter_proxy_retries_total")
		for _, h := range st.hosts {
			t.trips[h] = st.net.Trips(h)
		}
	}
	return t
}

// sumMetric adds up every series of one metric name in a registry snapshot
// whose labels include all of want.
func sumMetric(snap metrics.Snapshot, name string, want ...metrics.Label) int64 {
	var sum int64
	for _, s := range snap.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for _, w := range want {
			found := false
			for _, l := range s.Labels {
				found = found || l == w
			}
			match = match && found
		}
		if match {
			sum += s.Value
		}
	}
	return sum
}

// begin marks the start of the timed region: counts are reported from here.
func (st *stack) begin() { st.base = st.tally() }

// countMetrics are the per-layer count metrics of the timed region.
func (st *stack) countMetrics(p *pass, batch bool) {
	now, n := st.tally(), len(p.samples)
	p.counts = map[string]value{}
	ratio := func(name string, part, rest int64) {
		if part+rest > 0 {
			p.counts[name] = value{float64(part) / float64(part+rest), int(part + rest)}
		}
	}
	ratio("server.result_hit_ratio", now.hits-st.base.hits, now.misses-st.base.misses)
	ratio("server.phase_hit_ratio", now.phaseHits-st.base.phaseHits, now.phaseMisses-st.base.phaseMisses)
	if st.router == nil {
		return
	}
	var trips, most int64
	least := int64(-1)
	for _, h := range st.hosts {
		t := now.trips[h] - st.base.trips[h]
		trips += t
		most = max(most, t)
		if least < 0 || t < least {
			least = t
		}
	}
	exchanges := "cluster.exchanges_per_req"
	if batch {
		exchanges = "cluster.batch_shards_per_req"
	}
	p.counts[exchanges] = value{float64(trips) / float64(n), n}
	if least > 0 {
		p.counts["cluster.shard_spread"] = value{float64(most) / float64(least), int(trips)}
	}
	p.counts["cluster.retries"] = value{float64(now.retries - st.base.retries), n}
	probes, hits := now.probes-st.base.probes, now.probeHits-st.base.probeHits
	ratio("cluster.probe_hit_ratio", hits, probes-hits)
}

// harvest files one finished request of a traced pass: the self time of
// the router, the replica handler's time on hits and its overhead on
// misses, and — looked up by the trace id the response carried — the span
// trees the router and the replicas kept of the same request.
func (st *stack) harvest(tr *reqTrace, traceID string) {
	samples := map[string][]float64{}
	root := tr.spans[0]
	samples["client_us"] = []float64{float64(root.dur()) / 1e3}
	for _, s := range tr.children(root.ID) {
		if s.Name != "router" {
			continue
		}
		samples["router_self_us"] = []float64{float64(selfTime(s, tr.children(s.ID))) / 1e3}
		if sp, ok := st.routerTr.Lookup(traceID); ok {
			liftTree(tr, s.ID, obs.Tree(sp), map[string][]float64{})
		}
	}
	for i, host := range st.hosts {
		var at *span
		for j := range tr.spans {
			if tr.spans[j].Name == "replica:"+host {
				at = &tr.spans[j] // the last one: the tree a replica keeps per trace id is its latest
			}
		}
		if at == nil {
			continue
		}
		sp, ok := st.servers[i].Tracer().Lookup(traceID)
		if !ok {
			continue
		}
		tt := obs.Tree(sp)
		if tt.Root.Name == "POST /run" {
			us := float64(at.dur()) / 1e3
			if exec, ok := childNamed(tt.Root, "execute"); ok {
				samples["miss_overhead_us"] = append(samples["miss_overhead_us"], us-float64(exec.DurUS))
			} else {
				samples["hit_path_us"] = append(samples["hit_path_us"], us)
			}
		}
		liftTree(tr, at.ID, tt, samples)
	}
	st.ls.keep(tr, samples)
}

// answer is one retained response of a timed pass.
type answer struct {
	status int
	body   []byte
}

// send performs request i of a timed pass and keeps the answer; the body
// is copied out because the recorder is reused.
func (st *stack) send(u *url.URL, body []byte, into *answer) bool {
	c, tr := st.post(u, body)
	*into = answer{status: c.rec.Status(), body: bytes.Clone(c.rec.Body)}
	if tr != nil {
		st.harvest(tr, c.rec.Header().Get("X-Oldend-Trace-Id"))
	}
	clientPool.Put(c)
	return into.status == http.StatusOK
}

// finish closes a pass whose answers were retained: status counts, and
// every record checked against the key it was asked for.
func (st *stack) finish(p *pass, res load.Result, answers []answer, asked [][]runKey, batch bool) {
	p.samples, p.elapsed = res.Samples, res.Elapsed
	bad := map[int]bool{}
	var shed, expired int
	for i, a := range answers {
		switch a.status {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusGatewayTimeout:
			expired++
		}
		if a.status != http.StatusOK {
			p.problem("request %d (%s): status %d: %s", i, asked[i][0].Key, a.status, bytes.TrimSpace(a.body))
			continue
		}
		recs, err := decodeAnswer(a.body, batch, len(asked[i]))
		if err != nil {
			p.problem("request %d (%s): %v", i, asked[i][0].Key, err)
			bad[i] = true
			continue
		}
		for j, rec := range recs {
			if got := server.CacheKey(requestOf(rec)); got != asked[i][j].Key {
				p.problem("request %d: asked for %s, answered %s", i, asked[i][j].Key, got)
				bad[i] = true
			}
			p.note(asked[i][j].Key, rec)
		}
		if !bad[i] {
			p.records += len(recs)
		}
	}
	for i := range p.samples {
		s := &p.samples[i]
		s.OK = s.OK && !bad[s.Index]
		if !s.OK {
			p.failed++
		}
	}
	st.countMetrics(p, batch)
	n := len(answers)
	p.counts["server.shed_share"] = value{float64(shed) / float64(n), n}
	p.counts["server.expired_share"] = value{float64(expired) / float64(n), n}
}

// decodeAnswer parses a /run body or a /batch body of want items.
func decodeAnswer(body []byte, batch bool, want int) ([]record.RunRecord, error) {
	if !batch {
		var rec record.RunRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return nil, fmt.Errorf("bad /run body: %w", err)
		}
		return []record.RunRecord{rec}, nil
	}
	var items []server.BatchItem
	if err := json.Unmarshal(body, &items); err != nil {
		return nil, fmt.Errorf("bad /batch body: %w", err)
	}
	if len(items) != want {
		return nil, fmt.Errorf("/batch answered %d items for %d runs", len(items), want)
	}
	recs := make([]record.RunRecord, len(items))
	for i, it := range items {
		if it.Status != http.StatusOK {
			return nil, fmt.Errorf("/batch item %d: status %d: %s", i, it.Status, it.Error)
		}
		if err := json.Unmarshal(it.Record, &recs[i]); err != nil {
			return nil, fmt.Errorf("/batch item %d: bad record: %w", i, err)
		}
	}
	return recs, nil
}

// requestOf rebuilds the request a record answers.
func requestOf(rec record.RunRecord) server.RunRequest {
	return server.RunRequest{
		Benchmark: rec.Benchmark, Baseline: rec.Baseline, Procs: rec.Procs,
		Scale: rec.Scale, Scheme: rec.Scheme, Mode: rec.Mode,
	}
}

// singles wraps each key as a one-key request.
func singles(keys []runKey) [][]runKey {
	out := make([][]runKey, len(keys))
	for i, k := range keys {
		out[i] = []runKey{k}
	}
	return out
}

// serveHot: every request is a result-cache hit through the router.
func serveHot(sz sizes, seed int64, window time.Duration, ls *layerSamples) *pass {
	t0 := time.Now() // no warm-up pass: the pre-fill runs every kernel
	st := newStack(stackShape{replicas: 2, workers: 1, probeOwners: 1}, ls)
	defer st.close()
	p := newPass()

	// Pre-fill: every key once, untraced, keeping the cold answers a hit
	// must later equal byte for byte.
	keys := sz.tableKeys(rt.Heuristic)
	st.ls = nil
	cold := make([]answer, len(keys))
	load.Closed(clients, len(keys), 0, func(i int) bool { return st.send(runURL, keys[i].Body, &cold[i]) })
	st.ls = ls
	for i, k := range keys {
		if recs, err := decodeAnswer(cold[i].body, false, 1); cold[i].status != http.StatusOK || err != nil {
			p.problem("%s: pre-fill failed: status %d %v", k.Key, cold[i].status, err)
		} else {
			p.note(k.Key, recs[0])
		}
	}
	order := load.Walk(seed, len(keys))
	settle()
	st.begin()
	p.setup = time.Since(t0)

	var first sync.Once
	res := load.Closed(clients, 0, window, func(i int) bool {
		at := order[i%len(order)]
		c, tr := st.post(runURL, keys[at].Body)
		ok := c.rec.Status() == http.StatusOK && bytes.Equal(c.rec.Body, cold[at].body) &&
			c.rec.Header().Get("X-Oldend-Cache") == "hit"
		if !ok {
			first.Do(func() {
				p.problem("%s: hot answer (status %d, cache %q) is not the cold answer byte for byte",
					keys[at].Key, c.rec.Status(), c.rec.Header().Get("X-Oldend-Cache"))
			})
		}
		if tr != nil {
			st.harvest(tr, c.rec.Header().Get("X-Oldend-Trace-Id"))
		}
		clientPool.Put(c)
		return ok
	})
	p.samples, p.elapsed = res.Samples, res.Elapsed
	for _, s := range p.samples {
		if s.OK {
			p.records++
		} else {
			p.failed++
		}
	}
	st.countMetrics(p, false)
	return p
}

// serveCold: never-repeated keys, straight into one replica with two
// workers; the router is not in the path.
func serveCold(sz sizes, seed int64, ls *layerSamples) *pass {
	t0 := time.Now()
	warmUp(sz, rt.Heuristic)
	st := newStack(stackShape{replicas: 1, workers: 2}, ls)
	defer st.close()
	p := newPass()
	all := flatten(sz.coldGroups())
	keys := make([]runKey, len(all))
	for i, at := range load.Walk(seed, len(all)) {
		keys[i] = all[at]
	}
	answers := make([]answer, len(keys))
	settle()
	st.begin()
	p.setup = time.Since(t0)
	res := load.Closed(clients, len(keys), 0, func(i int) bool { return st.send(runURL, keys[i].Body, &answers[i]) })
	st.finish(p, res, answers, singles(keys), false)
	return p
}

// serveBatch: the cold keys again, six to a POST /batch, one client,
// through the router's shard-split-and-merge and the replicas' batch path.
func serveBatch(sz sizes, seed int64, ls *layerSamples) *pass {
	t0 := time.Now()
	warmUp(sz, rt.Heuristic)
	st := newStack(stackShape{replicas: 2, workers: 1, probeOwners: 1}, ls)
	defer st.close()
	p := newPass()
	all := sz.coldGroups()
	groups := make([][]runKey, len(all))
	bodies := make([][]byte, len(all))
	for i, at := range load.Walk(seed, len(all)) {
		groups[i], bodies[i] = all[at], batchBody(all[at])
	}
	answers := make([]answer, len(groups))
	settle()
	st.begin()
	p.setup = time.Since(t0)
	res := load.Closed(1, len(groups), 0, func(i int) bool { return st.send(batchURL, bodies[i], &answers[i]) })
	st.finish(p, res, answers, groups, true)
	return p
}

// serveOpen: arrivals at a fixed rate whatever the service is doing, a
// skewed key mix, caches empty at the start, two probe owners per key.
func serveOpen(sz sizes, seed int64, n int, ls *layerSamples) *pass {
	t0 := time.Now()
	warmUp(sz, rt.Heuristic)
	st := newStack(stackShape{replicas: 2, workers: 1, probeOwners: 2}, ls)
	defer st.close()
	p := newPass()
	keys := sz.openKeys(seed, n)
	answers := make([]answer, n)
	settle()
	st.begin()
	p.setup = time.Since(t0)
	res := load.Open(load.WallClock, sz.openRate, n, func(i int) bool { return st.send(runURL, keys[i].Body, &answers[i]) })
	st.finish(p, res, answers, singles(keys), false)

	within, late := 0, make([]float64, 0, n)
	for _, s := range p.samples {
		if s.OK && s.Lat <= sloLimit {
			within++
		}
		late = append(late, float64(s.Late)/float64(time.Millisecond))
	}
	p.counts["slo_share"] = value{float64(within) / float64(n), n}
	if v, ok := load.Percentile(sorted(late), 95); ok {
		p.counts["perf.gen_late_ms_p95"] = value{v, n}
	}
	return p
}
