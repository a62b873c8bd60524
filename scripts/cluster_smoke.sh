#!/usr/bin/env bash
# cluster_smoke.sh — boots three oldend replicas behind oldenrouter and
# asserts the sharded-cluster acceptance criteria:
#   1. a routed run lands on a shard (named in X-Oldend-Shard), a repeat
#      through the router is a byte-identical cache hit, and fetching the
#      same configuration directly from the answering replica returns the
#      same bytes — ⟨replica, run-config⟩ addressing is real — and an
#      unsampled routed request's trace id is on that replica's access log;
#      a configuration that cannot fit a heap section (barneshut at scale
#      1) is a 400, through the router and direct, and so is a /run
#      declaring a 2 MiB body a 413 with no 100 Continue; every shard is
#      still ready afterwards;
#   2. a cross-replica determinism sweep, off the request path: every
#      catalog benchmark at P=1 and P=4 is sent directly to each of the
#      three replicas twice (fresh runs and hits, then hits only), and all
#      six answers must be byte-identical with one X-Oldend-Trace-Digest;
#      then each key runs once more through the router with "no_cache":true,
#      and that fresh run must be byte-identical with the same digest too;
#   3. routed load spreads over all three shards within the balance gate
#      (oldenload -via-router -expect-shards/-max-shard-spread) and the
#      repeated mix is served mostly from the federated caches;
#   4. killing one replica mid-traffic costs nothing visible: requests
#      retry to the next ring owner with zero 5xx;
#   5. a sampled traceparent survives the router hop, and both
#      /debug/requests and /debug/trace/<id> answer THROUGH the router;
#   6. unknown paths and unknown trace ids add no /metrics series: the
#      request counter is labelled by route, not by the path asked for.
# Artifacts (balance reports, router + replica logs, /metrics scrapes,
# the fetched traces) land in $CLUSTER_OUT for CI upload.
set -euo pipefail

ROUTER_ADDR=${CLUSTER_ADDR:-127.0.0.1:18090}
BASE_PORT=${CLUSTER_BASE_PORT:-18091}
OUT=${CLUSTER_OUT:-/tmp/oldend-cluster}
mkdir -p "$OUT"

go build -o "$OUT/oldend" ./cmd/oldend
go build -o "$OUT/oldenrouter" ./cmd/oldenrouter
go build -o "$OUT/oldenload" ./cmd/oldenload

REPLICAS=""
PIDS=()
for i in 0 1 2; do
  port=$((BASE_PORT + i))
  "$OUT/oldend" -addr "127.0.0.1:$port" -workers 2 -queue 32 -shard "shard$i" \
    2>"$OUT/oldend-$i.log" &
  PIDS+=($!)
  REPLICAS="$REPLICAS,http://127.0.0.1:$port"
done
REPLICAS=${REPLICAS#,}

"$OUT/oldenrouter" -addr "$ROUTER_ADDR" -replicas "$REPLICAS" \
  -probe-owners 2 -down-cooldown 5s \
  2>"$OUT/oldenrouter.log" &
ROUTER_PID=$!
trap 'kill -9 $ROUTER_PID "${PIDS[@]}" 2>/dev/null || true' EXIT

for _ in $(seq 1 50); do
  curl -fsS "http://$ROUTER_ADDR/readyz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$ROUTER_ADDR/readyz" >"$OUT/readyz.json"
grep -q '"ready_shards":3' "$OUT/readyz.json"
echo "cluster-smoke: router ready on $ROUTER_ADDR with 3 shards"

# The router's catalog is any replica's catalog, byte-for-byte.
curl -fsS "http://$ROUTER_ADDR/benchmarks" >"$OUT/benchmarks.json"
curl -fsS "http://127.0.0.1:$BASE_PORT/benchmarks" | cmp - "$OUT/benchmarks.json"

# 1. Routed execution and federated caching. The first request executes
# on an owner of the key; the repeat must be a cache hit with identical
# bytes; and asking the answering replica DIRECTLY for the same
# configuration must return those same bytes — the shard really is the
# home of that result.
BODY='{"benchmark":"treeadd","procs":4,"scale":64}'
curl -fsS -X POST -d "$BODY" "http://$ROUTER_ADDR/run" -o "$OUT/r1.json" -D "$OUT/h1.txt"
SHARD=$(grep -i '^X-Oldend-Shard:' "$OUT/h1.txt" | tr -d '\r' | awk '{print $2}')
[ -n "$SHARD" ]
curl -fsS -X POST -d "$BODY" "http://$ROUTER_ADDR/run" -o "$OUT/r2.json" -D "$OUT/h2.txt"
cmp "$OUT/r1.json" "$OUT/r2.json"
grep -qi '^X-Oldend-Cache: hit' "$OUT/h2.txt"
grep -qi '^X-Oldend-Trace-Digest: events=' "$OUT/h2.txt"
SHARD_PORT=$((BASE_PORT + ${SHARD#shard}))
curl -fsS -X POST -d "$BODY" "http://127.0.0.1:$SHARD_PORT/run" | cmp - "$OUT/r1.json"
echo "cluster-smoke: routed repeat byte-identical ($SHARD), direct replica fetch agrees"

# 1b. An unsampled routed request (no traceparent) carries one trace id
# across the hop: the id the router answered with is the trace_id on the
# answering replica's access line.
curl -fsS -X POST -d "$BODY" "http://$ROUTER_ADDR/run" -o /dev/null -D "$OUT/hjoin.txt"
JOIN_TID=$(grep -i '^X-Oldend-Trace-Id:' "$OUT/hjoin.txt" | tr -d '\r' | awk '{print $2}')
JOIN_SHARD=$(grep -i '^X-Oldend-Shard:' "$OUT/hjoin.txt" | tr -d '\r' | awk '{print $2}')
[ -n "$JOIN_TID" ] && [ -n "$JOIN_SHARD" ]
grep -q "\"trace_id\":\"$JOIN_TID\"" "$OUT/oldend-${JOIN_SHARD#shard}.log" \
  || { echo "cluster-smoke: trace id $JOIN_TID is not on $JOIN_SHARD's access log" >&2; exit 1; }
echo "cluster-smoke: unsampled routed request joins $JOIN_SHARD's access line on trace_id"

# 1c. The first row of the fault matrix: barneshut at scale 1 exhausts
# processor 0's 64 MiB heap section inside the kernel, which would kill
# the replica that ran it. It must be refused as a 400, through the router
# and by a replica asked directly, and every shard must still be ready.
POISON='{"benchmark":"barneshut","scale":1}'
for target in "$ROUTER_ADDR" "127.0.0.1:$BASE_PORT"; do
  code=$(curl -sS -o "$OUT/poison.json" -w '%{http_code}' -X POST -d "$POISON" "http://$target/run")
  [ "$code" = 400 ] && grep -q 'heap section' "$OUT/poison.json" \
    || { echo "cluster-smoke: $POISON on $target answered $code, want a 400 naming the heap section" >&2; exit 1; }
done
curl -fsS "http://$ROUTER_ADDR/readyz" >"$OUT/readyz-after-poison.json"
grep -q '"ready_shards":3' "$OUT/readyz-after-poison.json" \
  || { echo "cluster-smoke: a shard is not ready after the poison request: $(cat "$OUT/readyz-after-poison.json")" >&2; exit 1; }
echo "cluster-smoke: poison request refused with 400, all three shards still ready"

# 1d. A body declared over the 1 MiB limit is refused on its
# Content-Length alone: a /run declaring 2 MiB with Expect: 100-continue
# gets a 413 as its first status line, never a 100 Continue (no byte of the
# body is asked for), from the router and from a replica asked directly,
# and every shard is still ready.
for target in "$ROUTER_ADDR" "127.0.0.1:$BASE_PORT"; do
  exec 3<>"/dev/tcp/${target%:*}/${target#*:}"
  printf 'POST /run HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nExpect: 100-continue\r\n\r\n' \
    "$target" $((2 << 20)) >&3
  status=$(timeout 10 head -n 1 <&3 | tr -d '\r') || true
  exec 3<&-
  case "$status" in
    "HTTP/1.1 413 "*) ;;
    *) echo "cluster-smoke: a 2 MiB declared body on $target answered '$status', want 413 before any 100 Continue" >&2; exit 1 ;;
  esac
done
curl -fsS "http://$ROUTER_ADDR/readyz" >"$OUT/readyz-after-oversize.json"
grep -q '"ready_shards":3' "$OUT/readyz-after-oversize.json" \
  || { echo "cluster-smoke: a shard is not ready after the oversize request: $(cat "$OUT/readyz-after-oversize.json")" >&2; exit 1; }
echo "cluster-smoke: 2 MiB declared body refused with 413 and no 100 Continue, all three shards still ready"

# 2. Cross-replica determinism, checked here rather than on the request
# path: each catalog key at P=1 and P=4 goes directly to every replica,
# twice. The first pass mixes fresh runs with the hits step 1 left; the
# second is all hits. The six answers must be cmp-equal and carry one
# X-Oldend-Trace-Digest — a memoized answer and an execution on another
# process are indistinguishable on the wire. Then each key goes through
# the router once with "no_cache":true (the owner re-executes it), and
# that answer must be cmp-equal with the same digest as well.
BENCHES=$(grep -o '"name": "[a-z0-9]*"' "$OUT/benchmarks.json" | cut -d'"' -f4)
[ -n "$BENCHES" ]
SWEEP="$OUT/sweep"
mkdir -p "$SWEEP"
nkeys=0
for b in $BENCHES; do
  for p in 1 4; do
    cfg="\"benchmark\":\"$b\",\"procs\":$p,\"scale\":64"
    for pass in 1 2; do
      for i in 0 1 2; do
        f="$SWEEP/$b-$p-$pass-$i"
        curl -fsS -X POST -d "{$cfg}" "http://127.0.0.1:$((BASE_PORT + i))/run" -o "$f.json" -D "$f.h"
        if [ "$pass" = 2 ] && ! grep -qi '^X-Oldend-Cache: hit' "$f.h"; then
          echo "cluster-smoke: $b P=$p on shard$i was not a hit on the second pass" >&2; exit 1
        fi
        cmp "$SWEEP/$b-$p-1-0.json" "$f.json" \
          || { echo "cluster-smoke: CROSS-REPLICA MISMATCH: $b P=$p, shard$i pass $pass differs from shard0 pass 1" >&2; exit 1; }
      done
    done
    f="$SWEEP/$b-$p-nocache"
    curl -fsS -X POST -d "{$cfg,\"no_cache\":true}" "http://$ROUTER_ADDR/run" -o "$f.json" -D "$f.h" \
      || { echo "cluster-smoke: no_cache run of $b P=$p through the router failed" >&2; exit 1; }
    cmp "$SWEEP/$b-$p-1-0.json" "$f.json" \
      || { echo "cluster-smoke: DETERMINISM MISMATCH: the no_cache re-run of $b P=$p differs from the sweep" >&2; exit 1; }
    ndigest=$(cat "$SWEEP/$b-$p"-*.h | grep -i '^X-Oldend-Trace-Digest:' | tr -d '\r' | sort -u | wc -l)
    [ "$ndigest" = 1 ] \
      || { echo "cluster-smoke: CROSS-REPLICA MISMATCH: $b P=$p carries $ndigest distinct trace digests" >&2; exit 1; }
    nkeys=$((nkeys + 1))
  done
done
echo "cluster-smoke: $nkeys catalog keys byte-identical on all three replicas (fresh and memoized) and on a no_cache re-run through the router"

# 3. Balance: a closed-loop mix of distinct configurations must reach
# all three shards within the spread gate, and the repeats must be
# served from the federated caches.
"$OUT/oldenload" -url "http://$ROUTER_ADDR" -c 6 -duration 4s \
  -mix "treeadd:1:64,treeadd:4:64,power:2:64,power:4:64,tsp:2:64,mst:4:64,bisort:2:64,voronoi:4:64,em3d:2:64,em3d:4:64,barneshut:2:64,perimeter:4:64,health:2:64,tsp:4:64,mst:2:64,bisort:4:64" \
  -via-router -expect-shards 3 -max-shard-spread 4.0 \
  -slo-error-rate 0 -min-requests 100 \
  -out "$OUT/load-balance.json" | tee "$OUT/load-balance.txt"
HIT_PCT=$(awk -F'[(%]' '/^cache hits:/ {print int($2)}' "$OUT/load-balance.txt")
[ "${HIT_PCT:-0}" -ge 50 ] \
  || { echo "cluster-smoke: federated hit rate only $HIT_PCT% on a repeated mix" >&2; exit 1; }
echo "cluster-smoke: three-shard balance within spread gate, hit rate $HIT_PCT%"

# 4. Shard loss under traffic: kill one replica (not with SIGTERM — a
# hard kill, the failure the retry path exists for) and require zero
# 5xx: the router retries connection failures on the next ring owner.
# The no_cache sweep bypasses the probe phase, so keys owned by the dead
# shard are proxied straight at it and MUST take the retry path.
kill -9 "${PIDS[1]}"
for b in $BENCHES; do
  curl -fsS -X POST -d "{\"benchmark\":\"$b\",\"procs\":4,\"scale\":64,\"no_cache\":true}" \
    "http://$ROUTER_ADDR/run" -o /dev/null
done
"$OUT/oldenload" -url "http://$ROUTER_ADDR" -c 4 -duration 3s \
  -mix "treeadd:4:64,em3d:2:64,power:4:64,tsp:2:64,mst:4:64" \
  -via-router -slo-error-rate 0 -min-requests 50 \
  -out "$OUT/load-degraded.json" | tee "$OUT/load-degraded.txt"
curl -fsS "http://$ROUTER_ADDR/readyz" >"$OUT/readyz-degraded.json"
grep -q '"ready_shards":2' "$OUT/readyz-degraded.json"
echo "cluster-smoke: replica killed mid-traffic, zero 5xx, router degraded to 2 shards"

# 5. Tracing through the router: a fixed sampled traceparent keeps its
# id across the hop, and the debug endpoints answer through the router —
# the trace is found on whichever replica retained it.
TID=4bf92f3577b34da6a3ce929d0e0e4736
curl -fsS -X POST -d '{"benchmark":"health","procs":2,"scale":64,"no_cache":true}' \
  -H "traceparent: 00-$TID-00f067aa0ba902b7-01" \
  "http://$ROUTER_ADDR/run" -o /dev/null -D "$OUT/htrace.txt"
grep -qi "^X-Oldend-Trace-Id: $TID" "$OUT/htrace.txt"
curl -fsS "http://$ROUTER_ADDR/debug/requests" >"$OUT/debug-requests.json"
grep -q "$TID" "$OUT/debug-requests.json"
grep -q '"shards"' "$OUT/debug-requests.json"
curl -fsS "http://$ROUTER_ADDR/debug/trace/$TID?format=tree" >"$OUT/trace-$TID.json"
grep -q "$TID" "$OUT/trace-$TID.json"
echo "cluster-smoke: traceparent survived the router, debug endpoints fan out"

# 6. Bounded request counters: two rounds of 50 distinct unknown paths
# and 20 random trace-id lookups. Each kind answers 404 under one series
# (path="unmatched" and path="/debug/trace/"), no series names a path that
# was asked for, and the second round leaves the router's /metrics exactly
# as many lines long as the first did.
junk_round() {
  for i in $(seq 1 50); do
    code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ROUTER_ADDR/nosuch/$1-$i")
    [ "$code" = 404 ] || { echo "cluster-smoke: /nosuch/$1-$i answered $code, want 404" >&2; exit 1; }
  done
  for _ in $(seq 1 20); do
    tid=$(od -An -N16 -tx1 /dev/urandom | tr -d ' \n')
    code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ROUTER_ADDR/debug/trace/$tid")
    [ "$code" = 404 ] || { echo "cluster-smoke: /debug/trace/$tid answered $code, want 404" >&2; exit 1; }
  done
}
curl -fsS "http://$ROUTER_ADDR/metrics" -o /dev/null # the scrape's own series exists before any count
junk_round a
curl -fsS "http://$ROUTER_ADDR/metrics" >"$OUT/router-metrics-junk1.prom"
junk_round b
curl -fsS "http://$ROUTER_ADDR/metrics" >"$OUT/router-metrics-junk2.prom"
for route in unmatched /debug/trace/; do
  n=$(grep -c "^oldenrouter_requests_total{code=\"404\",path=\"$route\"}" "$OUT/router-metrics-junk2.prom" || true)
  [ "$n" = 1 ] || { echo "cluster-smoke: $n 404 series for route $route, want exactly 1" >&2; exit 1; }
done
if grep -E 'path="(/nosuch|/debug/trace/[0-9a-f])' "$OUT/router-metrics-junk2.prom"; then
  echo "cluster-smoke: the request counter names a path that was asked for" >&2; exit 1
fi
l1=$(wc -l <"$OUT/router-metrics-junk1.prom")
l2=$(wc -l <"$OUT/router-metrics-junk2.prom")
[ "$l1" = "$l2" ] \
  || { echo "cluster-smoke: router /metrics grew from $l1 to $l2 lines over unknown paths and trace ids" >&2; exit 1; }
echo "cluster-smoke: 140 unknown paths and trace ids, one 404 series per route, /metrics steady at $l2 lines"

# Final metrics scrape for the artifact bundle, then a clean shutdown.
curl -fsS "http://$ROUTER_ADDR/metrics" >"$OUT/router-metrics.prom"
grep -Eq 'oldenrouter_proxy_retries_total [1-9]' "$OUT/router-metrics.prom" \
  || { echo "cluster-smoke: shard loss never exercised the retry path" >&2; exit 1; }
if grep -E 'oldenrouter_requests_total\{[^}]*code="5' "$OUT/router-metrics.prom"; then
  echo "cluster-smoke: router answered 5xx during the smoke" >&2; exit 1
fi

kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID"
grep -q 'drained cleanly' "$OUT/oldenrouter.log"
echo "cluster-smoke: PASS (artifacts in $OUT)"
