#!/bin/sh
# smoke_obs.sh — boot endpointd with a debug listener, scrape /metrics
# and /healthz, and fail on anything but a 200 with a non-empty
# exposition. This is the end-to-end check that the -debug-addr flag
# wiring actually serves: the registry is populated, the mux is mounted,
# and the daemon keeps ingesting while being scraped.
#
# Ports are fixed but obscure; pass SMOKE_PORT/SMOKE_DEBUG_PORT to
# override on a busy host.
set -eu

SMOKE_NAME="smoke-obs"
. "$(dirname "$0")/lib.sh"

PORT="${SMOKE_PORT:-18080}"
DEBUG_PORT="${SMOKE_DEBUG_PORT:-18081}"

TMP="$(mktemp -d)"
smoke_defer_dir "$TMP"
mkdir -p "$TMP/data"

go build -o "$TMP/endpointd" ./cmd/endpointd

"$TMP/endpointd" -listen "127.0.0.1:$PORT" -master smoke-master \
    -data-dir "$TMP/data" -shards 2 -wal-fsync never \
    -debug-addr "127.0.0.1:$DEBUG_PORT" &
PID=$!
smoke_defer_pid "$PID"

# Wait for the debug listener, not just the process: Serve binds
# asynchronously after the daemon's own setup.
smoke_await "$PID" "http://127.0.0.1:$DEBUG_PORT/healthz"

METRICS="$TMP/metrics.txt"
STATUS="$(curl -s -o "$METRICS" -w '%{http_code}' "http://127.0.0.1:$DEBUG_PORT/metrics")"
[ "$STATUS" = "200" ] || smoke_fail "GET /metrics returned $STATUS"
[ -s "$METRICS" ] || smoke_fail "/metrics exposition is empty"

# The registry must actually carry the daemon's instruments, not just
# any bytes: check for one cloud counter and the tsdb counters whose
# ratio is the log's bytes per point.
for want in cloud_ingest_accepted_total tsdb_appended_total tsdb_wal_bytes_total; do
    grep -q "^$want " "$METRICS" || smoke_fail "exposition is missing $want:" "$METRICS"
done

HSTATUS="$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$DEBUG_PORT/healthz")"
[ "$HSTATUS" = "200" ] || smoke_fail "GET /healthz returned $HSTATUS"

BYTES="$(wc -c <"$METRICS")"
echo "smoke-obs: OK (/metrics served $BYTES bytes, /healthz 200)"
