#!/bin/sh
# smoke_query.sh — the end-to-end drill for the tiered read path against
# the real binary: boot endpointd with rollups on (-retain-raw), pump a
# two-year virtual series through /ingest with cluster-stamped arrival
# times (the data clock paces retention, not the wall clock), wait for a
# checkpoint to fold the old raw tail into hourly/daily buckets, and
# verify /query from outside: full coverage, daily tier engaged, under
# the latency budget. Then SIGKILL the daemon — no shutdown path — boot
# a fresh process from the checkpoint (manifest + segments) + WAL, and
# require the byte-exact same answer: the rollup state survived the crash
# with no double-count and no loss. Scrape /metrics for the query_* and
# cloud_checkpoint_* instruments, then stop the daemon and take the way
# out an operator holding only files has: -export-json must turn them
# into the portable JSON snapshot without listening.
#
# Ports are fixed but obscure; pass SMOKE_QUERY_PORT/SMOKE_QUERY_DEBUG_PORT
# to override on a busy host.
set -eu

SMOKE_NAME="smoke-query"
. "$(dirname "$0")/lib.sh"

PORT="${SMOKE_QUERY_PORT:-18090}"
DEBUG_PORT="${SMOKE_QUERY_DEBUG_PORT:-18091}"
MASTER="smoke-fleet-master"
SECRET="smoke-query-secret"

TMP="$(mktemp -d)"
smoke_defer_dir "$TMP"

go build -o "$TMP/endpointd" ./cmd/endpointd
go build -o "$TMP/queryload" ./cmd/queryload

# boot — start the endpoint with tiered retention: hourly/daily rollup
# buckets, raw kept for 30 virtual days, checkpoint (= fold + delta save
# + WAL truncation) every second. The same data dir and checkpoint survive
# kills, so a restart replays to the identical state.
boot() {
    "$TMP/endpointd" -listen "127.0.0.1:$PORT" -master "$MASTER" \
        -data-dir "$TMP/tsdb" -shards 4 -wal-fsync always \
        -snapshot "$TMP/store.json" -save-every 1s \
        -retain-raw 720h -cluster-secret "$SECRET" \
        -debug-addr "127.0.0.1:$DEBUG_PORT" >>"$TMP/endpointd.log" 2>&1 &
    PID=$!
    smoke_defer_pid "$PID"
}

await_ready() {
    smoke_await "$PID" "http://127.0.0.1:$PORT/status" "" "$TMP/endpointd.log"
}

mkdir -p "$TMP/tsdb"
boot
await_ready

# Two devices, 730 daily points each: two years of data time in a few
# wall seconds, arrival-stamped via the cluster header.
"$TMP/queryload" -endpoint "http://127.0.0.1:$PORT" -master "$MASTER" \
    -cluster-secret "$SECRET" -mode ingest -devices 2 -points 730 ||
    smoke_fail "ingest failed — endpointd log follows" "$TMP/endpointd.log"

# First verify: waits for the fold (checkpoint cadence is 1s), checks
# coverage + daily tier + latency, and records the answer bytes.
"$TMP/queryload" -endpoint "http://127.0.0.1:$PORT" -mode verify \
    -devices 2 -points 730 -answer "$TMP/answer.json" -max-millis 10 ||
    smoke_fail "pre-kill verify failed — endpointd log follows" "$TMP/endpointd.log"

# The crash: SIGKILL, no shutdown path — the checkpoint (sealed buckets,
# watermarks, raw window) and the WAL (what came after) are the only
# survivors.
echo "smoke-query: SIGKILL endpointd (pid $PID)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

echo "smoke-query: rebooting from checkpoint + WAL"
boot
await_ready

# Post-kill verify: the same checks, and the answer must be
# byte-identical to the pre-kill record — no double-count, no loss.
"$TMP/queryload" -endpoint "http://127.0.0.1:$PORT" -mode verify \
    -devices 2 -points 730 -answer "$TMP/answer.json" -max-millis 10 ||
    smoke_fail "post-kill verify failed — endpointd log follows" "$TMP/endpointd.log"

# The query layer's instruments must be live on the debug surface.
METRICS="$TMP/metrics.txt"
STATUS="$(curl -s -o "$METRICS" -w '%{http_code}' "http://127.0.0.1:$DEBUG_PORT/metrics")"
[ "$STATUS" = "200" ] || smoke_fail "GET /metrics returned $STATUS"
for want in query_requests_total query_tier_daily_buckets_total query_seconds \
    cloud_checkpoint_seconds_count 'cloud_checkpoint_phase_seconds_count{phase="sealed"}' \
    cloud_checkpoint_bytes_written_total cloud_checkpoint_segments; do
    grep -qF "$want" "$METRICS" || smoke_fail "exposition is missing $want"
done
REQS="$(grep '^query_requests_total ' "$METRICS" | awk '{print $2}')"
grep -q 'format version 3' "$TMP/endpointd.log" ||
    smoke_fail "the reboot did not load a version-3 manifest — endpointd log follows" "$TMP/endpointd.log"

# The way out: stop the daemon (its final checkpoint included), then ask
# the binary for the portable export of what the files hold.
kill "$PID"
wait "$PID" 2>/dev/null || true
"$TMP/endpointd" -data-dir "$TMP/tsdb" -snapshot "$TMP/store.json" -retain-raw 720h \
    -export-json "$TMP/export.json" >>"$TMP/endpointd.log" 2>&1 ||
    smoke_fail "-export-json failed — endpointd log follows" "$TMP/endpointd.log"
grep -q '^{"version":2,' "$TMP/export.json" || smoke_fail "-export-json did not write a version-2 JSON snapshot"
grep -q '"hourly_buckets":{"' "$TMP/export.json" || smoke_fail "the export carries no rollup buckets"

echo "smoke-query: OK (daily tier engaged, crash-equivalent answers, $REQS query requests instrumented, JSON export of $(wc -c <"$TMP/export.json") bytes)"
