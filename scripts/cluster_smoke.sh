#!/usr/bin/env bash
# cluster_smoke.sh — boots three oldend replicas behind oldenrouter and
# asserts the sharded-cluster acceptance criteria:
#   1. a routed run lands on a shard (named in X-Oldend-Shard), a repeat
#      through the router is a byte-identical cache hit, and fetching the
#      same configuration directly from the answering replica returns the
#      same bytes — ⟨replica, run-config⟩ addressing is real — and an
#      unsampled routed request's trace id is on that replica's access log;
#   2. a verify sweep (every 4th routed execution duplicated to a second
#      replica) over the full kernel catalog, run twice, ends with
#      oldenrouter_verify_mismatch_total = 0 — replicas agree
#      byte-for-byte, the determinism contract holds across processes —
#      and so does the same double sweep through a second router without
#      the probe phase, where memoized answers meet fresh executions;
#   3. routed load spreads over all three shards within the balance gate
#      (oldenload -via-router -expect-shards/-max-shard-spread) and the
#      repeated mix is served mostly from the federated caches;
#   4. killing one replica mid-traffic costs nothing visible: requests
#      retry to the next ring owner with zero 5xx;
#   5. a sampled traceparent survives the router hop, and both
#      /debug/requests and /debug/trace/<id> answer THROUGH the router.
# Artifacts (balance reports, router + replica logs, /metrics scrapes,
# the fetched traces) land in $CLUSTER_OUT for CI upload.
set -euo pipefail

ROUTER_ADDR=${CLUSTER_ADDR:-127.0.0.1:18090}
VERIFY_ADDR=${CLUSTER_VERIFY_ADDR:-127.0.0.1:18089}
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
  -probe-owners 2 -verify-every 4 -down-cooldown 5s \
  2>"$OUT/oldenrouter.log" &
ROUTER_PID=$!
# A second router over the same replicas with no probe phase: its repeats
# reach the primary owner as plain cache hits, so its verifier compares
# memoized answers against fresh executions (step 2).
"$OUT/oldenrouter" -addr "$VERIFY_ADDR" -replicas "$REPLICAS" -verify-every 3 \
  2>"$OUT/oldenrouter-verify.log" &
VERIFY_PID=$!
trap 'kill -9 $ROUTER_PID $VERIFY_PID "${PIDS[@]}" 2>/dev/null || true' EXIT

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

# 2. Cross-replica verify sweep: run the whole catalog through the
# router twice — every 4th execution is duplicated to a peer; the second
# pass is cache-hit traffic served by the probe phase. Zero mismatches is
# the gate; at least one match proves the verifier actually ran. Then the
# same double sweep through the probe-less router: by now some owners
# hold a key and some do not, and its every-3rd counter lands on
# different keys in the second pass, so hits are verified against fresh
# runs (and the reverse) — a memoized answer and an execution must be
# indistinguishable on the wire, digest header included.
BENCHES=$(grep -o '"name": "[a-z0-9]*"' "$OUT/benchmarks.json" | cut -d'"' -f4)
[ -n "$BENCHES" ]
curl -fsS --retry 25 --retry-delay 0 --retry-connrefused "http://$VERIFY_ADDR/readyz" >/dev/null
for target in "$ROUTER_ADDR" "$VERIFY_ADDR"; do
  prom="$OUT/router-metrics-verify-${target##*:}.prom"
  for _pass in 1 2; do
    for b in $BENCHES; do
      for p in 1 4; do
        curl -fsS -X POST -d "{\"benchmark\":\"$b\",\"procs\":$p,\"scale\":64}" \
          "http://$target/run" -o /dev/null
      done
    done
  done
  curl -fsS "http://$target/metrics" >"$prom"
  grep -Eq 'oldenrouter_verify_total\{outcome="match"\} [1-9]' "$prom" \
    || { echo "cluster-smoke: verify mode never ran a duplicate on $target" >&2; exit 1; }
  if grep -E 'oldenrouter_verify_mismatch_total [1-9]' "$prom"; then
    echo "cluster-smoke: CROSS-REPLICA VERIFY MISMATCH on $target — replicas disagreed byte-for-byte" >&2
    exit 1
  fi
done
kill -TERM "$VERIFY_PID"
wait "$VERIFY_PID"
echo "cluster-smoke: double verify sweep over the catalog (fresh and memoized), zero mismatches"

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
