#!/usr/bin/env bash
# serve_smoke.sh — boots oldend, drives it with oldenload, and asserts the
# serving-layer acceptance criteria:
#   1. a cache-hit repeat of a traced run is byte-identical and carries the
#      trace digest, and a no_cache re-run is byte-identical to it with the
#      same digest;
#   2. a queue-saturating mixed burst completes with zero 5xx (429
#      shedding is the admission-control contract, not an error) and the
#      latency SLO holds on cached traffic;
#   3. end-to-end tracing: a request with a sampled traceparent keeps its
#      trace id on the response, appears in /debug/requests, and its
#      /debug/trace/<id> export merges service spans with simulated
#      events (internal/server's TestSampledRunMergedChromeTrace runs the
#      strict Chrome trace validator over the same export);
#   4. SIGTERM during load drains in-flight jobs cleanly: readiness fails
#      first, admitted runs finish, the process exits 0.
# Artifacts (latency reports, /metrics scrape, access log, the sampled
# Chrome trace and /debug/requests snapshot) land in $SMOKE_OUT for CI
# upload.
set -euo pipefail

ADDR=${SMOKE_ADDR:-127.0.0.1:18080}
OUT=${SMOKE_OUT:-/tmp/oldend-smoke}
mkdir -p "$OUT"

go build -o "$OUT/oldend" ./cmd/oldend
go build -o "$OUT/oldenload" ./cmd/oldenload

"$OUT/oldend" -addr "$ADDR" -workers 2 -queue 4 2>"$OUT/oldend.log" &
OLDEND_PID=$!
trap 'kill -9 $OLDEND_PID 2>/dev/null || true' EXIT

for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$ADDR/readyz" >/dev/null
echo "smoke: oldend ready on $ADDR"

# The catalog endpoint must serve the same enumeration oldenbench -list
# prints — the no-drift contract between the three binaries.
curl -fsS "http://$ADDR/benchmarks" >"$OUT/benchmarks.json"
go run ./cmd/oldenbench -list | cmp - "$OUT/benchmarks.json"
echo "smoke: /benchmarks matches oldenbench -list byte-for-byte"

# 1. Deterministic memoization: repeat of a traced run.
BODY='{"benchmark":"treeadd","procs":4,"scale":64}'
curl -fsS -X POST -d "$BODY" "http://$ADDR/run" -o "$OUT/r1.json" -D "$OUT/h1.txt"
curl -fsS -X POST -d "$BODY" "http://$ADDR/run" -o "$OUT/r2.json" -D "$OUT/h2.txt"
cmp "$OUT/r1.json" "$OUT/r2.json"
grep -qi '^X-Oldend-Cache: hit' "$OUT/h2.txt"
grep -qi '^X-Oldend-Trace-Digest: events=' "$OUT/h2.txt"
curl -fsS -X POST -d '{"benchmark":"treeadd","procs":4,"scale":64,"no_cache":true}' \
  "http://$ADDR/run" -o "$OUT/r3.json" -D "$OUT/h3.txt"
cmp "$OUT/r1.json" "$OUT/r3.json"
grep -qi '^X-Oldend-Cache: bypass' "$OUT/h3.txt"
digest() { grep -i '^X-Oldend-Trace-Digest:' "$1" | tr -d '\r' | cut -d' ' -f2-; }
[ "$(digest "$OUT/h2.txt")" = "$(digest "$OUT/h3.txt")" ] \
  || { echo "smoke: no_cache re-run digest $(digest "$OUT/h3.txt") differs from the hit's $(digest "$OUT/h2.txt")" >&2; exit 1; }
echo "smoke: cache hit byte-identical, digest attached, no_cache re-run byte-identical with the same digest"

# 3 (before the load phases, while the server is quiet). End-to-end
# tracing: a fixed sampled traceparent must come back as the response's
# trace id, show up in /debug/requests, and produce a merged Chrome
# trace with both service spans (pid 1000) and simulated events.
TID=4bf92f3577b34da6a3ce929d0e0e4736
curl -fsS -X POST -d '{"benchmark":"em3d","procs":2,"scale":64,"no_cache":true}' \
  -H "traceparent: 00-$TID-00f067aa0ba902b7-01" \
  "http://$ADDR/run" -o /dev/null -D "$OUT/htrace.txt"
grep -qi "^X-Oldend-Trace-Id: $TID" "$OUT/htrace.txt"
grep -qi "^X-Request-Id: $TID" "$OUT/htrace.txt"
curl -fsS "http://$ADDR/debug/requests" >"$OUT/debug-requests.json"
grep -q "$TID" "$OUT/debug-requests.json"
grep -q '"dominant"' "$OUT/debug-requests.json"
curl -fsS "http://$ADDR/debug/trace/$TID" >"$OUT/trace-$TID.json"
grep -q '"pid":1000' "$OUT/trace-$TID.json"
grep -q '"cat":"thread"' "$OUT/trace-$TID.json"
curl -fsS "http://$ADDR/debug/trace/$TID?format=tree" >"$OUT/trace-tree-$TID.json"
grep -q '"queue_wait"' "$OUT/trace-tree-$TID.json"
# Error responses carry a trace id too — the header contract covers
# every status, not just 200s.
ERR_CODE=$(curl -s -o /dev/null -D "$OUT/herr.txt" -w '%{http_code}' \
  -X POST -d 'not json' "http://$ADDR/run")
[ "$ERR_CODE" = 400 ]
grep -qi '^X-Oldend-Trace-Id: ' "$OUT/herr.txt"
echo "smoke: traceparent round-trip, /debug endpoints and merged Chrome trace checked"

# 2a. Deliberate over-admission: open loop far beyond capacity. Gate:
# zero 5xx, every non-200 a clean 429 shed.
"$OUT/oldenload" -url "http://$ADDR" -rps 250 -duration 5s \
  -mix "treeadd:4:64,em3d:2:64,power:4:64" -no-cache \
  -slo-error-rate 0 -min-requests 100 \
  -out "$OUT/load-burst.json" | tee "$OUT/load-burst.txt"

# 2b. Cached closed loop: latency SLO on the memoized hot path, with
# every 10th request traced so the run ends in span breakdowns of the
# slowest sampled requests.
"$OUT/oldenload" -url "http://$ADDR" -c 8 -duration 3s \
  -mix "treeadd:4:64,em3d:2:64" \
  -trace-every 10 -slowest 3 \
  -slo-p95 250 -slo-error-rate 0 -min-requests 100 \
  -out "$OUT/load-cached.json" | tee "$OUT/load-cached.txt"
grep -q 'dominates at depth' "$OUT/load-cached.txt" \
  || { echo "smoke: oldenload printed no span breakdowns" >&2; exit 1; }

# Server-side cross-check via the metrics scrape artifact.
curl -fsS "http://$ADDR/metrics" >"$OUT/metrics.prom"
grep -Eq 'oldend_shed_total [1-9]' "$OUT/metrics.prom" \
  || { echo "smoke: over-admission never shed" >&2; exit 1; }
if grep -E 'oldend_requests_total\{code="5' "$OUT/metrics.prom"; then
  echo "smoke: server counted 5xx responses" >&2; exit 1
fi
grep -Eq 'oldend_cache_hits_total [1-9]' "$OUT/metrics.prom" \
  || { echo "smoke: no cache hits recorded" >&2; exit 1; }
echo "smoke: metrics scrape confirms shedding, zero 5xx, cache hits"

# 3. SIGTERM during live load: clean drain.
("$OUT/oldenload" -url "http://$ADDR" -rps 50 -duration 4s -mix "treeadd:4:64" -no-cache \
  >"$OUT/load-drain.txt" 2>&1 || true) &
LOAD_PID=$!
sleep 1
kill -TERM "$OLDEND_PID"
wait "$OLDEND_PID" # exits 0 only on a clean drain
wait "$LOAD_PID" || true
grep -q 'drained cleanly' "$OUT/oldend.log"
echo "smoke: SIGTERM under load drained cleanly"
echo "smoke: PASS (artifacts in $OUT)"
