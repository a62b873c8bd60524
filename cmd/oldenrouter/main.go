// Command oldenrouter fronts a sharded oldend cluster: it
// consistent-hashes each request's canonical run-config cache key across
// a static replica list, proxies to the owning shard, probes peer caches
// for hot keys and retries connection failures on the next ring owner.
//
//	oldenrouter -addr :8090 \
//	  -replicas http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 \
//	  -probe-owners 2
//
// The surface is deliberately the same as one oldend (POST /run, POST
// /batch, GET /benchmarks, /metrics, /healthz, /readyz, /debug/...), so
// pointing a client — or oldenload — at the router instead of a replica
// changes nothing but capacity. Every response names the shard that
// answered in X-Oldend-Shard and preserves the replica's X-Oldend-*
// cache and trace-digest headers end to end; a W3C traceparent rides
// through the router into the replica, so one trace id resolves the
// whole hop chain.
//
// When a shard is unreachable, requests retry on the next owner in ring
// order (deterministic results make any replica a correct fallback);
// when no owner of a key is reachable the answer is 503 with
// Retry-After.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"

	_ "repro/internal/bench/all"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated oldend base URLs the ring shards over (required)")
	probeOwners := flag.Int("probe-owners", 1, "hot-key replication width R: cacheable requests rotate across the key's first R owners, probing their caches first (1 = primary owner only)")
	maxConns := flag.Int("max-conns", 64, "max concurrent connections the router holds open per replica")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 503 responses")
	downCooldown := flag.Duration("down-cooldown", 2*time.Second, "how long a replica stays marked down after a connection failure")
	traceSample := flag.Int("trace-sample", 0, "head-sample every Nth request for span tracing (0 = only requests with a sampled traceparent, negative disables)")
	quiet := flag.Bool("quiet", false, "disable the JSON access log on stderr")
	flag.Parse()

	if *replicas == "" {
		fatalf("-replicas is required (comma-separated oldend base URLs)")
	}
	var list []string
	for _, r := range strings.Split(*replicas, ",") {
		r = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(r), "/"))
		if r != "" {
			list = append(list, r)
		}
	}
	cfg := cluster.Config{
		Replicas:           list,
		ProbeOwners:        *probeOwners,
		MaxConnsPerReplica: *maxConns,
		RetryAfter:         *retryAfter,
		DownCooldown:       *downCooldown,
		SampleEvery:        *traceSample,
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "oldenrouter: listening on %s (replicas=%d probe-owners=%d)\n",
		*addr, len(list), *probeOwners)
	// No job state of its own: the in-flight proxied requests the
	// listener's Shutdown waits for are all there is to flush.
	if err := server.Serve("oldenrouter", *addr, rt.Handler(), 30*time.Second, nil); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oldenrouter: "+format+"\n", args...)
	os.Exit(1)
}
