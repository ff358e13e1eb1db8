#!/bin/sh
# smoke_query.sh — the end-to-end drill for the tiered read path against
# the real binary: boot endpointd with a raw retention window (-retain-raw), pump a
# two-year virtual series through /ingest with cluster-stamped arrival
# times (the data clock paces retention, not the wall clock), wait for a
# checkpoint to fold the old raw tail into hourly/daily buckets, and
# verify /query from outside: full coverage, daily tier engaged, under
# the latency budget. Then SIGKILL the daemon — no shutdown path — boot
# a fresh process from the checkpoint (manifest + segments) + WAL, and
# require the byte-exact same answer: the rollup state survived the crash
# with no double-count and no loss. Both times /devices and /status must
# still name both devices. Scrape /metrics for the query_* and
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

# check_devices requires the device set to hold both devices: /devices
# lists two and /status counts two, whatever share of their readings the
# fold has moved into buckets. "devices" is the one device count in the
# /status body, so the grep cannot match any other field.
check_devices() {
    DEVS="$(curl -s "http://127.0.0.1:$PORT/devices")"
    [ "$(printf '%s' "$DEVS" | grep -o '"[^"]*"' | wc -l)" -eq 2 ] ||
        smoke_fail "$1: /devices is $DEVS, want two devices"
    curl -s "http://127.0.0.1:$PORT/status" | grep -q '"devices":2,' ||
        smoke_fail "$1: /status does not report \"devices\":2"
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
check_devices "after the fold"

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
check_devices "after the SIGKILL reboot"

# The query layer's instruments must be live on the debug surface.
METRICS="$TMP/metrics.txt"
STATUS="$(curl -s -o "$METRICS" -w '%{http_code}' "http://127.0.0.1:$DEBUG_PORT/metrics")"
[ "$STATUS" = "200" ] || smoke_fail "GET /metrics returned $STATUS"
for want in query_requests_total query_tier_daily_buckets_total query_seconds \
    cloud_checkpoint_seconds_count 'cloud_checkpoint_phase_seconds_count{phase="sealed"}' \
    cloud_checkpoint_bytes_written_total cloud_checkpoint_segments \
    'cloud_archive_bytes{kind="sealed"}' 'cloud_archive_bytes{kind="tail"}' cloud_archive_buckets; do
    grep -qF "$want" "$METRICS" || smoke_fail "exposition is missing $want"
done
REQS="$(grep '^query_requests_total ' "$METRICS" | awk '{print $2}')"
grep -q 'format version 5' "$TMP/endpointd.log" ||
    smoke_fail "the reboot did not load a version-5 manifest — endpointd log follows" "$TMP/endpointd.log"

# The archive the reboot loaded is in compact frames: a daily reading is
# one reading to its hourly and to its daily bucket, each a single-form
# bucket of at most 16 bytes (8 on the hour; FORMAT.md), where a fixed
# frame spent 60.
SEALED="$(grep '^cloud_archive_bytes{kind="sealed"} ' "$METRICS" | awk '{print $2}')"
BUCKETS="$(grep '^cloud_archive_buckets ' "$METRICS" | awk '{print $2}')"
[ "${BUCKETS:-0}" -gt 0 ] || smoke_fail "the rebooted endpoint reports no sealed buckets"
[ "$SEALED" -le $((16 * BUCKETS)) ] ||
    smoke_fail "sealed segments hold $SEALED bytes for $BUCKETS buckets: more than 16 a bucket"

# Its tail is in device runs: a daily reading is about 12 bytes there
# (FORMAT.md), where a point record spent 38.
TAIL="$(grep '^cloud_archive_bytes{kind="tail"} ' "$METRICS" | awk '{print $2}')"
TAIL_POINTS="$(grep -o '[0-9]* tail points' "$TMP/endpointd.log" | tail -n 1 | awk '{print $1}')"
[ "${TAIL_POINTS:-0}" -gt 0 ] || smoke_fail "the reboot read no tail points — endpointd log follows" "$TMP/endpointd.log"
[ "$TAIL" -le $((16 * TAIL_POINTS)) ] ||
    smoke_fail "the tail holds $TAIL bytes for $TAIL_POINTS points: more than 16 a point"

# The way out: stop the daemon (its final checkpoint included), then ask
# the binary for the portable export of what the files hold. No flag
# repeats how the archive was written: it records its own tiers.
kill "$PID"
wait "$PID" 2>/dev/null || true
"$TMP/endpointd" -data-dir "$TMP/tsdb" -snapshot "$TMP/store.json" \
    -export-json "$TMP/export.json" >>"$TMP/endpointd.log" 2>&1 ||
    smoke_fail "-export-json failed — endpointd log follows" "$TMP/endpointd.log"
grep -q '^{"version":2,' "$TMP/export.json" || smoke_fail "-export-json did not write a version-2 JSON snapshot"
grep -q '"hourly_buckets":{"' "$TMP/export.json" || smoke_fail "the export carries no rollup buckets"

echo "smoke-query: OK (daily tier engaged, crash-equivalent answers, $REQS query requests instrumented, $SEALED sealed bytes for $BUCKETS buckets, $TAIL tail bytes for $TAIL_POINTS points, JSON export of $(wc -c <"$TMP/export.json") bytes)"
