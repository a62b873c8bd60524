// Command oldenload drives traffic at a running oldend and grades the
// result: throughput, error rate, shed rate and latency percentiles,
// with an SLO gate that fails the process on breach — the repo's
// real-traffic benchmark alongside the simulated-cycle one.
//
// Closed loop (fixed concurrency, each worker fires as fast as the
// server answers):
//
//	oldenload -c 8 -duration 10s
//
// Open loop (fixed arrival rate, regardless of server speed — the shape
// that exercises admission control and shedding):
//
//	oldenload -rps 200 -duration 10s
//
// The request mix is bench:procs:scale triples; unset fields take the
// shared catalog defaults, and names are validated against the same
// enumeration oldend serves at GET /benchmarks:
//
//	oldenload -mix "treeadd:4:64,em3d:2:64" -schemes global -no-cache
//
// Every request runs in heuristic mode under the server's default
// deadline. A scheme sweep expands every mix entry across a set of
// coherence schemes — the shape that exercises the server's phase cache,
// which shares one build-phase boundary across schemes:
//
//	oldenload -mix "em3d:2:64" -schemes local,global,bilateral -no-cache
//
// With -trace-every N, every Nth request carries a sampled W3C
// traceparent; after the run the K slowest sampled requests (-slowest)
// are fetched back from GET /debug/trace/<id> and reduced to their
// dominant span — "queue_wait dominates at depth 1" distinguishes an
// overloaded queue from a slow kernel without opening a trace viewer:
//
//	oldenload -rps 200 -duration 10s -trace-every 10 -slowest 5
//
// Exit status: 0 when every SLO holds and no request got a 5xx; 1 on any
// breach; 2 on usage errors. 429 shedding is the admission-control
// contract working, not an error — it is reported separately and never
// fails the gate.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"

	_ "repro/internal/bench/all"
)

// sample is one completed request observation.
type sample struct {
	status  int // 0 = transport error
	cache   string
	phase   string
	shard   string // X-Oldend-Shard: which replica answered (cluster mode)
	latency time.Duration
	// traceID is set when the request carried a sampled traceparent, so
	// the server retained its span tree for post-run inspection.
	traceID string
}

// SlowTrace is one slow sampled request's span breakdown, fetched from
// the server's /debug/trace endpoint after the run.
type SlowTrace struct {
	TraceID       string  `json:"trace_id"`
	LatencyMS     float64 `json:"latency_ms"`
	Dominant      string  `json:"dominant"`
	DominantDepth int     `json:"dominant_depth"`
	DominantUS    int64   `json:"dominant_us"`
	ServerDurUS   int64   `json:"server_dur_us"`
}

// Report is the machine-readable load-test result (-out writes it).
type Report struct {
	Mode        string           `json:"mode"` // closed | open
	URL         string           `json:"url"`
	DurationSec float64          `json:"duration_sec"`
	Mix         []string         `json:"mix"`
	Requests    int64            `json:"requests"`
	ByStatus    map[string]int64 `json:"by_status"`
	Transport   int64            `json:"transport_errors"`
	ClientDrops int64            `json:"client_drops,omitempty"` // open loop: inflight cap hit
	Succeeded   int64            `json:"succeeded"`
	Shed        int64            `json:"shed_429"`
	Failed5xx   int64            `json:"failed_5xx"`
	CacheHits   int64            `json:"cache_hits"`
	PhaseHits   int64            `json:"phase_cache_hits"`
	PhaseMisses int64            `json:"phase_cache_misses"`
	Throughput  float64          `json:"throughput_rps"` // successful responses per second
	Latency     LatencyMS        `json:"latency_ms"`     // over successful responses
	// Shards is the per-shard balance view (cluster mode, -via-router):
	// how the router spread this run's traffic, attributed by the
	// X-Oldend-Shard header each response carried.
	Shards     map[string]*ShardStats `json:"shards,omitempty"`
	SlowTraces []SlowTrace            `json:"slow_traces,omitempty"`
	Breaches   []string               `json:"slo_breaches,omitempty"`
}

// ShardStats is one shard's slice of a -via-router run.
type ShardStats struct {
	Requests  int64   `json:"requests"`
	Succeeded int64   `json:"succeeded"`
	CacheHits int64   `json:"cache_hits"`
	HitRate   float64 `json:"hit_rate_pct"`
}

// LatencyMS summarizes successful-response latency in milliseconds.
type LatencyMS struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "oldend base URL")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	concurrency := flag.Int("c", 4, "closed-loop worker count (ignored when -rps > 0)")
	rps := flag.Float64("rps", 0, "open-loop target arrival rate; 0 selects the closed loop")
	maxInflight := flag.Int("max-inflight", 512, "open loop: cap on in-flight requests (beyond it arrivals drop client-side)")
	mixSpec := flag.String("mix", "", "comma-separated bench[:procs[:scale]] request mix (default: first four catalog benchmarks at scale 64)")
	schemes := flag.String("schemes", "local", "comma-separated coherence schemes: every mix entry expands across all of them")
	noCache := flag.Bool("no-cache", false, "bypass the server's result cache (every request simulates)")
	sloP95 := flag.Float64("slo-p95", 0, "fail if p95 latency exceeds this many ms (0 = off)")
	sloErrRate := flag.Float64("slo-error-rate", 0, "max tolerated (5xx + transport error) fraction")
	minRequests := flag.Int64("min-requests", 1, "fail if fewer requests completed (guards against a dead server passing)")
	out := flag.String("out", "", "write the JSON report to this file")
	traceEvery := flag.Int("trace-every", 0, "send a sampled W3C traceparent on every Nth request so the server retains its span tree (0 = never)")
	slowest := flag.Int("slowest", 3, "after the run, fetch and print span breakdowns for the K slowest sampled requests")
	viaRouter := flag.Bool("via-router", false, "cluster mode: the target is an oldenrouter; report per-shard request balance and hit rates from X-Oldend-Shard")
	expectShards := flag.Int("expect-shards", 0, "cluster mode: fail the gate when fewer distinct shards answered (0 = off)")
	maxShardSpread := flag.Float64("max-shard-spread", 0, "cluster mode: fail the gate when max/min per-shard request counts exceed this ratio (0 = off)")
	flag.Parse()

	mix, err := parseMix(*mixSpec, strings.Split(*schemes, ","), *noCache)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oldenload: %v\n", err)
		os.Exit(2)
	}

	client := &http.Client{Timeout: 2 * time.Minute}
	var (
		mu      sync.Mutex
		samples []sample
		drops   atomic.Int64
		next    atomic.Int64
	)
	recordSample := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	fire := func() {
		n := next.Add(1) - 1
		body := mix[int(n)%len(mix)]
		req, err := http.NewRequest(http.MethodPost, *url+"/run", bytes.NewReader(body))
		if err != nil {
			recordSample(sample{status: 0})
			return
		}
		req.Header.Set("Content-Type", "application/json")
		sampled := *traceEvery > 0 && n%int64(*traceEvery) == 0
		if sampled {
			req.Header.Set("traceparent", newTraceparent())
		}
		start := time.Now()
		resp, err := client.Do(req)
		lat := time.Since(start)
		if err != nil {
			recordSample(sample{status: 0, latency: lat})
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s := sample{
			status:  resp.StatusCode,
			cache:   resp.Header.Get("X-Oldend-Cache"),
			phase:   resp.Header.Get("X-Oldend-Phase-Cache"),
			shard:   resp.Header.Get("X-Oldend-Shard"),
			latency: lat,
		}
		if sampled {
			// The server echoes the propagated id; trust its header so the
			// id we later query is the one it retained.
			s.traceID = resp.Header.Get("X-Oldend-Trace-Id")
		}
		recordSample(s)
	}

	loopMode := "closed"
	stop := time.Now().Add(*duration)
	var wg sync.WaitGroup
	if *rps > 0 {
		loopMode = "open"
		interval := time.Duration(float64(time.Second) / *rps)
		if interval <= 0 {
			interval = time.Microsecond
		}
		sem := make(chan struct{}, *maxInflight)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for time.Now().Before(stop) {
			<-ticker.C
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					fire()
				}()
			default:
				drops.Add(1) // arrival beyond the in-flight cap: client-side drop
			}
		}
	} else {
		if *concurrency < 1 {
			fmt.Fprintln(os.Stderr, "oldenload: -c must be >= 1")
			os.Exit(2)
		}
		for i := 0; i < *concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					fire()
				}
			}()
		}
	}
	wg.Wait()

	rep := summarize(samples, loopMode, *url, *duration, mixNames(mix), drops.Load(), *viaRouter)
	rep.SlowTraces = slowTraces(client, *url, samples, *slowest)
	gate(&rep, *sloP95, *sloErrRate, *minRequests)
	gateShards(&rep, *expectShards, *maxShardSpread)

	fmt.Print(formatReport(rep))
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "oldenload: write report: %v\n", err)
			os.Exit(2)
		}
	}
	if len(rep.Breaches) > 0 {
		fmt.Fprintf(os.Stderr, "oldenload: SLO BREACH: %s\n", strings.Join(rep.Breaches, "; "))
		os.Exit(1)
	}
}

// newTraceparent mints a sampled W3C traceparent so the server adopts
// our trace id and retains the request's span tree.
func newTraceparent() string {
	var ctx obs.Context
	binary.BigEndian.PutUint64(ctx.TraceID[:8], rand.Uint64())
	binary.BigEndian.PutUint64(ctx.TraceID[8:], rand.Uint64())
	binary.BigEndian.PutUint64(ctx.SpanID[:], rand.Uint64())
	ctx.Sampled = true
	return ctx.Traceparent()
}

// slowTraces asks the server where the time went in its K slowest
// sampled requests. The /debug/requests ring is already sorted
// slowest-first with each sampled request's dominant span precomputed;
// when the full span tree is still retained (the trace ring is smaller
// than the request ring) it is fetched from /debug/trace for the exact
// self-time numbers. The traceIDs set — requests this load run itself
// sampled — restricts the view to our own traffic. Best-effort
// diagnosis, never part of the gate.
func slowTraces(client *http.Client, baseURL string, samples []sample, k int) []SlowTrace {
	if k <= 0 {
		return nil
	}
	ours := map[string]bool{}
	for _, s := range samples {
		if s.traceID != "" {
			ours[s.traceID] = true
		}
	}
	if len(ours) == 0 {
		return nil
	}
	resp, err := client.Get(baseURL + "/debug/requests")
	if err != nil {
		return nil
	}
	var dbg struct {
		Requests []struct {
			TraceID       string `json:"trace_id"`
			DurUS         int64  `json:"dur_us"`
			Sampled       bool   `json:"sampled"`
			Dominant      string `json:"dominant"`
			DominantDepth int    `json:"dominant_depth"`
		} `json:"requests"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dbg)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	var out []SlowTrace
	for _, r := range dbg.Requests {
		if len(out) == k {
			break
		}
		if !r.Sampled || r.Dominant == "" || !ours[r.TraceID] {
			continue
		}
		st := SlowTrace{
			TraceID:       r.TraceID,
			Dominant:      r.Dominant,
			DominantDepth: r.DominantDepth,
			ServerDurUS:   r.DurUS,
			LatencyMS:     float64(r.DurUS) / 1000,
		}
		if tr, err := client.Get(baseURL + "/debug/trace/" + r.TraceID + "?format=tree"); err == nil {
			var tree struct {
				DominantUS int64 `json:"dominant_us"`
			}
			if tr.StatusCode == http.StatusOK && json.NewDecoder(tr.Body).Decode(&tree) == nil {
				st.DominantUS = tree.DominantUS
			}
			io.Copy(io.Discard, tr.Body)
			tr.Body.Close()
		}
		out = append(out, st)
	}
	return out
}

// parseMix compiles the mix spec into ready-to-send request bodies — one
// per (mix entry, scheme) pair — validating every field against the
// shared catalog so this binary can never ask for a configuration oldend
// does not advertise.
func parseMix(spec string, schemes []string, noCache bool) ([][]byte, error) {
	catalog := bench.Catalog()
	byName := map[string]bench.CatalogEntry{}
	for _, e := range catalog {
		byName[e.Name] = e
	}
	if spec == "" {
		var parts []string
		for _, e := range catalog {
			parts = append(parts, fmt.Sprintf("%s:%d:64", e.Name, e.DefaultProcs))
			if len(parts) == 4 {
				break
			}
		}
		spec = strings.Join(parts, ",")
	}
	var mix [][]byte
	for _, item := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(item), ":")
		if len(fields) > 3 {
			return nil, fmt.Errorf("bad mix entry %q (want bench[:procs[:scale]])", item)
		}
		e, ok := byName[fields[0]]
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q in mix (oldenbench -list enumerates them)", fields[0])
		}
		procs, scale := e.DefaultProcs, e.DefaultScale
		var err error
		if len(fields) > 1 {
			if procs, err = strconv.Atoi(fields[1]); err != nil || procs < 1 || procs > e.MaxProcs {
				return nil, fmt.Errorf("bad procs in mix entry %q", item)
			}
		}
		if len(fields) > 2 {
			if scale, err = strconv.Atoi(fields[2]); err != nil || scale < 1 {
				return nil, fmt.Errorf("bad scale in mix entry %q", item)
			}
		}
		for _, scheme := range schemes {
			scheme = strings.TrimSpace(scheme)
			schemeOK := false
			for _, s := range e.Schemes {
				schemeOK = schemeOK || s == scheme
			}
			if !schemeOK {
				return nil, fmt.Errorf("scheme %q not in catalog (%s)", scheme, strings.Join(e.Schemes, ", "))
			}
			body, err := json.Marshal(map[string]any{
				"benchmark": e.Name,
				"procs":     procs,
				"scale":     scale,
				"scheme":    scheme,
				"no_cache":  noCache,
			})
			if err != nil {
				return nil, err
			}
			mix = append(mix, body)
		}
	}
	return mix, nil
}

func mixNames(mix [][]byte) []string {
	var names []string
	for _, b := range mix {
		var m struct {
			Benchmark string `json:"benchmark"`
			Procs     int    `json:"procs"`
			Scale     int    `json:"scale"`
			Scheme    string `json:"scheme"`
		}
		_ = json.Unmarshal(b, &m)
		names = append(names, fmt.Sprintf("%s:%d:%d:%s", m.Benchmark, m.Procs, m.Scale, m.Scheme))
	}
	return names
}

func summarize(samples []sample, mode, url string, dur time.Duration, mix []string, drops int64, viaRouter bool) Report {
	rep := Report{
		Mode:        mode,
		URL:         url,
		DurationSec: dur.Seconds(),
		Mix:         mix,
		ByStatus:    map[string]int64{},
		ClientDrops: drops,
	}
	if viaRouter {
		rep.Shards = map[string]*ShardStats{}
	}
	var okLats []time.Duration
	for _, s := range samples {
		rep.Requests++
		if s.status == 0 {
			rep.Transport++
			continue
		}
		rep.ByStatus[strconv.Itoa(s.status)]++
		var sh *ShardStats
		if rep.Shards != nil && s.shard != "" {
			sh = rep.Shards[s.shard]
			if sh == nil {
				sh = &ShardStats{}
				rep.Shards[s.shard] = sh
			}
			sh.Requests++
		}
		switch {
		case s.status == http.StatusOK:
			rep.Succeeded++
			okLats = append(okLats, s.latency)
			if sh != nil {
				sh.Succeeded++
			}
			if s.cache == "hit" {
				rep.CacheHits++
				if sh != nil {
					sh.CacheHits++
				}
			}
			switch s.phase {
			case "hit":
				rep.PhaseHits++
			case "miss":
				rep.PhaseMisses++
			}
		case s.status == http.StatusTooManyRequests:
			rep.Shed++
		case s.status >= 500:
			// Strict by design: drain refusals (503) and expired
			// deadlines (504) count too, so a gated load run must
			// target a ready server and use sane deadlines.
			rep.Failed5xx++
		}
	}
	if dur > 0 {
		rep.Throughput = float64(rep.Succeeded) / dur.Seconds()
	}
	for _, sh := range rep.Shards {
		sh.HitRate = pct(sh.CacheHits, sh.Succeeded)
	}
	if len(okLats) > 0 {
		sort.Slice(okLats, func(i, j int) bool { return okLats[i] < okLats[j] })
		var sum time.Duration
		for _, l := range okLats {
			sum += l
		}
		rep.Latency = LatencyMS{
			P50:  ms(percentile(okLats, 50)),
			P95:  ms(percentile(okLats, 95)),
			P99:  ms(percentile(okLats, 99)),
			Mean: ms(sum / time.Duration(len(okLats))),
			Max:  ms(okLats[len(okLats)-1]),
		}
	}
	return rep
}

// percentile returns the q-th percentile of sorted latencies by the
// nearest-rank method.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// gate appends one breach string per violated SLO. A 5xx is always a
// breach: the admission-control contract says overload answers 429,
// never a server error; shedding itself never breaches.
func gate(rep *Report, p95, errRate float64, minRequests int64) {
	if rep.Requests < minRequests {
		rep.Breaches = append(rep.Breaches,
			fmt.Sprintf("completed %d requests, need >= %d", rep.Requests, minRequests))
	}
	if rep.Failed5xx > 0 {
		rep.Breaches = append(rep.Breaches, fmt.Sprintf("%d responses were 5xx", rep.Failed5xx))
	}
	if rep.Requests > 0 {
		er := float64(rep.Failed5xx+rep.Transport) / float64(rep.Requests)
		if er > errRate {
			rep.Breaches = append(rep.Breaches,
				fmt.Sprintf("error rate %.4f > %.4f", er, errRate))
		}
	}
	if p95 > 0 && rep.Latency.P95 > p95 {
		rep.Breaches = append(rep.Breaches, fmt.Sprintf("p95 %.1fms > %.1fms", rep.Latency.P95, p95))
	}
}

// gateShards appends cluster-mode breaches: fewer shards answered than
// the cluster is supposed to have (a replica silently absorbed nothing —
// dead ring entry or mis-hashing router), or per-shard request counts
// spread wider than the allowed max/min ratio (the consistent-hash
// balance contract).
func gateShards(rep *Report, expectShards int, maxSpread float64) {
	if expectShards > 0 && len(rep.Shards) < expectShards {
		rep.Breaches = append(rep.Breaches,
			fmt.Sprintf("%d distinct shards answered, need >= %d", len(rep.Shards), expectShards))
	}
	if maxSpread > 0 && len(rep.Shards) > 0 {
		minReq, maxReq := int64(math.MaxInt64), int64(0)
		for _, sh := range rep.Shards {
			if sh.Requests < minReq {
				minReq = sh.Requests
			}
			if sh.Requests > maxReq {
				maxReq = sh.Requests
			}
		}
		if minReq == 0 {
			rep.Breaches = append(rep.Breaches, "a shard answered zero requests (spread unbounded)")
		} else if spread := float64(maxReq) / float64(minReq); spread > maxSpread {
			rep.Breaches = append(rep.Breaches,
				fmt.Sprintf("shard load spread %.2f (max %d / min %d requests) > %.2f",
					spread, maxReq, minReq, maxSpread))
		}
	}
}

func formatReport(r Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "oldenload: %s loop against %s for %.1fs\n", r.Mode, r.URL, r.DurationSec)
	fmt.Fprintf(&sb, "mix: %s\n", strings.Join(r.Mix, ", "))
	fmt.Fprintf(&sb, "requests: %d  ok: %d  shed(429): %d  5xx: %d  transport: %d",
		r.Requests, r.Succeeded, r.Shed, r.Failed5xx, r.Transport)
	if r.ClientDrops > 0 {
		fmt.Fprintf(&sb, "  client-drops: %d", r.ClientDrops)
	}
	sb.WriteByte('\n')
	var codes []string
	for c := range r.ByStatus {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(&sb, "  status %s: %d\n", c, r.ByStatus[c])
	}
	fmt.Fprintf(&sb, "cache hits: %d (%.1f%% of ok)\n", r.CacheHits, pct(r.CacheHits, r.Succeeded))
	if r.PhaseHits+r.PhaseMisses > 0 {
		fmt.Fprintf(&sb, "phase cache: %d hits / %d builds (%.1f%% hit rate)\n",
			r.PhaseHits, r.PhaseMisses, pct(r.PhaseHits, r.PhaseHits+r.PhaseMisses))
	}
	fmt.Fprintf(&sb, "throughput: %.1f ok/s\n", r.Throughput)
	fmt.Fprintf(&sb, "latency ms: p50=%.2f p95=%.2f p99=%.2f mean=%.2f max=%.2f\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.Mean, r.Latency.Max)
	if len(r.Shards) > 0 {
		names := make([]string, 0, len(r.Shards))
		for n := range r.Shards {
			names = append(names, n)
		}
		sort.Strings(names)
		sb.WriteString("per-shard balance:\n")
		for _, n := range names {
			sh := r.Shards[n]
			fmt.Fprintf(&sb, "  %-12s requests=%d ok=%d cache-hits=%d (%.1f%%)\n",
				n, sh.Requests, sh.Succeeded, sh.CacheHits, sh.HitRate)
		}
	}
	if len(r.SlowTraces) > 0 {
		sb.WriteString("slowest sampled requests:\n")
		for i, st := range r.SlowTraces {
			fmt.Fprintf(&sb, "  %d. %s %.2fms — %s dominates at depth %d (%dµs self of %dµs server time)\n",
				i+1, st.TraceID, st.LatencyMS, st.Dominant, st.DominantDepth, st.DominantUS, st.ServerDurUS)
		}
	}
	if len(r.Breaches) == 0 {
		sb.WriteString("SLO: ok\n")
	} else {
		fmt.Fprintf(&sb, "SLO: BREACHED — %s\n", strings.Join(r.Breaches, "; "))
	}
	return sb.String()
}

func pct(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}
