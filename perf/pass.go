package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench/record"
	"repro/perf/load"
)

// value is one reported figure and the number of samples behind it.
type value struct {
	V float64 `json:"v"`
	N int     `json:"n"`
}

// repeatResult is what one repeat of a workload — one child process —
// reports to the parent.
type repeatResult struct {
	Metrics   map[string]value  `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Measured  float64           `json:"measured_s"` // length of the timed region
	Problems  []string          `json:"problems,omitempty"`
	Identity  map[string]string `json:"identity,omitempty"` // cache key → cycles and trace digest
}

// pass is one timed run of a workload's request list on fresh state, with
// everything needed to report on it.
type pass struct {
	setup    time.Duration // warm-up, construction and pre-fill, before the timed region
	samples  []load.Sample // one per request
	elapsed  time.Duration // the timed region
	records  int           // verified records delivered (a /batch request delivers several)
	failed   int
	problems []string

	// identity maps each distinct key served to its cycles and trace
	// digest; sums adds their simulated-machine counts up.
	identity map[string]string
	sums     simCounts

	// counts are the per-layer metrics read from registries and counters.
	counts map[string]value
}

func newPass() *pass { return &pass{identity: map[string]string{}} }

// simCounts are the simulated machine's own counts summed over a set of
// records. They are a function of the configurations run and nothing
// else: two commits differ in them only if the model changed.
type simCounts struct {
	Migrations, Futures, Misses, RemoteRefs, LineFetches, Cycles int64
	PagesCached, Invalidations, StampChecks, FullFlushes         int64
}

func (c *simCounts) add(rec record.RunRecord) {
	c.Migrations += rec.Stats.Migrations
	c.Futures += rec.Stats.Futures
	c.Misses += rec.Stats.Misses
	c.RemoteRefs += rec.Stats.RemoteRefs()
	c.LineFetches += rec.Stats.LineFetches
	c.Cycles += rec.Cycles
	c.PagesCached += rec.Stats.PagesCached
	c.Invalidations += rec.Stats.Invalidations
	c.StampChecks += rec.Stats.StampChecks
	c.FullFlushes += rec.Stats.FullFlushes
}

func (c simCounts) metrics(into map[string]value, n int) {
	for name, v := range map[string]int64{
		"machine.migrations":      c.Migrations,
		"machine.futures":         c.Futures,
		"machine.misses":          c.Misses,
		"machine.remote_refs":     c.RemoteRefs,
		"machine.line_fetches":    c.LineFetches,
		"machine.sim_cycles":      c.Cycles,
		"cache.pages_cached":      c.PagesCached,
		"coherence.invalidations": c.Invalidations,
		"coherence.stamp_checks":  c.StampChecks,
		"coherence.full_flushes":  c.FullFlushes,
	} {
		into[name] = value{float64(v), n}
	}
}

// identityOf is what must be equal whenever one configuration is run
// twice, by any path.
func identityOf(rec record.RunRecord) string {
	return fmt.Sprintf("cycles=%d digest=%s", rec.Cycles, rec.TraceDigest)
}

// note records one delivered record: it must be verified, and agree with
// any earlier delivery of the same key.
func (p *pass) note(key string, rec record.RunRecord) {
	if !rec.Verified {
		p.problem("%s: record is not verified", key)
	}
	id := identityOf(rec)
	if prev, seen := p.identity[key]; seen {
		if prev != id {
			p.problem("%s: %s on one delivery, %s on another", key, prev, id)
		}
		return
	}
	p.identity[key] = id
	p.sums.add(rec)
}

func (p *pass) problem(format string, args ...any) {
	if len(p.problems) < 20 { // one broken layer fails every request; twenty lines say so
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// userMetrics are the figures every repeat reports, traced or not: the
// two end-to-end metrics, and the median latency and peak RSS beside them.
func (p *pass) userMetrics(setup time.Duration) map[string]value {
	m := map[string]value{
		"records_per_s": {float64(p.records) / p.elapsed.Seconds(), p.records},
		"setup_s":       {setup.Seconds(), 1},
		"peak_rss_mb":   {peakRSSMiB(), 1},
		"failed_share":  {float64(p.failed) / float64(len(p.samples)), len(p.samples)},
	}
	ms := load.Millis(p.samples)
	for name, pct := range map[string]float64{"lat_p50_ms": 50, "lat_p95_ms": 95, "lat_p99_ms": 99} {
		if v, ok := load.Percentile(ms, pct); ok {
			m[name] = value{v, len(ms)}
		}
	}
	return m
}

// settle ends a set-up: it collects the garbage the warm-up and the
// pre-fill left behind, so that every timed region starts from the same
// heap and the collector's first cycle does not fall at a random point of it.
func settle() { runtime.GC() }

func meanOf(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func geomean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
