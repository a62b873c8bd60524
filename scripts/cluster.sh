#!/usr/bin/env bash
# cluster.sh — `make cluster`: a local sharded cluster in one command.
# Boots three oldend replicas and oldenrouter in front of them, streams
# all four logs to the terminal, and tears the whole thing down on
# ctrl-C. Point clients (or `oldenload -via-router`) at the router; the
# surface is identical to a single oldend.
set -euo pipefail

ROUTER_ADDR=${CLUSTER_ADDR:-127.0.0.1:8090}
BASE_PORT=${CLUSTER_BASE_PORT:-8081}
NREPLICAS=${CLUSTER_REPLICAS:-3}
PROBE_OWNERS=${CLUSTER_PROBE_OWNERS:-2}

BIN=$(mktemp -d)
trap 'kill 0 2>/dev/null; rm -rf "$BIN"' EXIT INT TERM

go build -o "$BIN/oldend" ./cmd/oldend
go build -o "$BIN/oldenrouter" ./cmd/oldenrouter

REPLICAS=""
for i in $(seq 0 $((NREPLICAS - 1))); do
  port=$((BASE_PORT + i))
  "$BIN/oldend" -addr "127.0.0.1:$port" -shard "shard$i" 2>&1 \
    | sed "s/^/[shard$i] /" &
  REPLICAS="$REPLICAS,http://127.0.0.1:$port"
done
REPLICAS=${REPLICAS#,}

for _ in $(seq 1 50); do
  curl -fsS "http://127.0.0.1:$BASE_PORT/readyz" >/dev/null 2>&1 && break
  sleep 0.2
done

"$BIN/oldenrouter" -addr "$ROUTER_ADDR" -replicas "$REPLICAS" \
  -probe-owners "$PROBE_OWNERS" 2>&1 \
  | sed 's/^/[router] /' &

echo "cluster: router on http://$ROUTER_ADDR fronting $NREPLICAS replicas (ctrl-C stops everything)"
wait
