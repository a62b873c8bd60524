// Command oldend is the Olden execution service: a long-running HTTP
// server that runs benchmark simulations on a bounded worker pool with
// admission control, deterministic result memoization, Prometheus
// metrics and graceful drain.
//
//	oldend -addr :8080 -workers 4 -queue 64
//
// Endpoints:
//
//	POST /run             {"benchmark":"treeadd","procs":4,"scheme":"local"}
//	POST /batch           {"runs":[...]} — a config set, deduped against both caches
//	GET  /benchmarks      machine-readable catalog (same bytes as oldenbench -list)
//	GET  /metrics         Prometheus text exposition
//	GET  /debug/requests  recent + in-flight requests, slowest first
//	GET  /debug/trace/ID  one sampled request's merged Chrome trace (?format=tree for JSON)
//	GET  /healthz         liveness
//	GET  /readyz          readiness (fails during drain)
//
// Every response carries X-Oldend-Trace-Id; requests arriving with a
// W3C traceparent keep their upstream trace id, and a sampled flag (or
// -trace-sample N head sampling) retains the full span tree — admission,
// queue wait, cache probes, per-phase execution — merged with the run's
// simulated cache events in one Chrome trace file.
//
// A full queue sheds load with 429 + Retry-After; SIGINT/SIGTERM begins
// graceful drain: readiness fails, in-flight and queued runs complete,
// then the process exits. Repeating a run configuration returns the
// memoized RunRecord byte-identically — sound because the simulator is
// deterministic (PR 3's digest goldens). Below the result cache sits the
// phase cache: a raw build is memoized once under its bench.Info.BuildKey
// (benchmark, machine size, scale) and restored for every scheme and mode
// (the X-Oldend-Phase-Cache header reports hit/miss/none).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/server"

	_ "repro/internal/bench/all"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "worker pool size (concurrent simulations)")
	queue := flag.Int("queue", 64, "admission queue depth; beyond this requests shed with 429")
	cacheEntries := flag.Int("cache", 256, "result cache capacity in entries (negative disables memoization)")
	phaseEntries := flag.Int("phase-cache", 64, "phase cache capacity: memoized build-phase boundaries shared across schemes (negative disables)")
	deadline := flag.Duration("deadline", 60*time.Second, "default per-request deadline")
	maxDeadline := flag.Duration("max-deadline", 5*time.Minute, "upper bound on requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "how long SIGTERM waits for in-flight runs")
	quiet := flag.Bool("quiet", false, "disable the JSON access log on stderr")
	traceSample := flag.Int("trace-sample", 0, "head-sample every Nth request for span tracing (1 = all, 0 = only requests with a sampled traceparent, negative disables)")
	traceRequests := flag.Int("trace-requests", 256, "finished-request ring size behind /debug/requests")
	shardName := flag.String("shard", "", "shard name this replica advertises in X-Oldend-Shard when serving behind oldenrouter")
	flag.Parse()

	cfg := server.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheEntries:      *cacheEntries,
		PhaseCacheEntries: *phaseEntries,
		DefaultDeadline:   *deadline,
		MaxDeadline:       *maxDeadline,
		SampleEvery:       *traceSample,
		DebugRequests:     *traceRequests,
		ShardName:         *shardName,
	}
	if !*quiet {
		cfg.AccessLog = server.NewAccessLogger(os.Stderr)
	}
	s := server.New(cfg)
	fmt.Fprintf(os.Stderr, "oldend: listening on %s (workers=%d queue=%d cache=%d phase-cache=%d)\n",
		*addr, *workers, *queue, *cacheEntries, *phaseEntries)
	// Drain order: s.Shutdown fails readiness and refuses new runs at
	// once and finishes admitted work; then the listener closes, so
	// in-flight responses flush before the process exits.
	if err := server.Serve("oldend", *addr, s.Handler(), *drainTimeout, s.Shutdown); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oldend: "+format+"\n", args...)
	os.Exit(1)
}
