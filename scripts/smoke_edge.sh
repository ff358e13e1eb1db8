#!/bin/sh
# smoke_edge.sh — the edge drill against the real binaries: a few
# sensornode processes transmit over UDP to gatewayd, which forwards
# over HTTP to a WAL-backed endpointd (-wal-fsync always). Mid-run the
# endpoint is SIGKILLed and, after a pause, rebooted on the same
# -data-dir. gatewayd parks what it cannot deliver and its drain loop
# replays the queue once the endpoint answers again.
#
# Passes when every packet the nodes sent is stored exactly once (the
# endpoint's /status point count equals the packets sent, and each
# device's /export holds every sequence number once), and gatewayd's
# uplink_drained_total is above 0 — proof that the outage was buffered
# and drained, not dodged.
#
# Ports are fixed but obscure; pass SMOKE_EDGE_BASE_PORT to override.
set -eu

SMOKE_NAME="smoke-edge"
. "$(dirname "$0")/lib.sh"

BASE="${SMOKE_EDGE_BASE_PORT:-19180}"
EP_PORT="$BASE"
GW_PORT=$((BASE + 1))
GW_DEBUG_PORT=$((BASE + 2))
MASTER="smoke-edge-master"
NODES=3
COUNT=60
INTERVAL=50ms
TOTAL=$((NODES * COUNT))

TMP="$(mktemp -d)"
smoke_defer_dir "$TMP"
mkdir -p "$TMP/data"

smoke_extra_cleanup() {
    if [ -f "$TMP/endpoint.pid" ]; then
        kill "$(cat "$TMP/endpoint.pid")" 2>/dev/null || true
    fi
}

go build -o "$TMP/endpointd" ./cmd/endpointd
go build -o "$TMP/gatewayd" ./cmd/gatewayd
go build -o "$TMP/sensornode" ./cmd/sensornode

boot_endpoint() {
    "$TMP/endpointd" -listen "127.0.0.1:$EP_PORT" -master "$MASTER" \
        -data-dir "$TMP/data" -shards 2 -wal-fsync always \
        >>"$TMP/endpointd.log" 2>&1 &
    echo $! >"$TMP/endpoint.pid"
}

boot_endpoint
smoke_await "$(cat "$TMP/endpoint.pid")" "http://127.0.0.1:$EP_PORT/status" "" "$TMP/endpointd.log"

"$TMP/gatewayd" -listen "127.0.0.1:$GW_PORT" -endpoint "http://127.0.0.1:$EP_PORT" \
    -retry-base 10ms -retry-max 200ms \
    -debug-addr "127.0.0.1:$GW_DEBUG_PORT" >"$TMP/gatewayd.log" 2>&1 &
GW_PID=$!
smoke_defer_pid "$GW_PID"
smoke_await "$GW_PID" "http://127.0.0.1:$GW_DEBUG_PORT/metrics" "" "$TMP/gatewayd.log"

NODE_PIDS=""
i=1
while [ "$i" -le "$NODES" ]; do
    "$TMP/sensornode" -gateway "127.0.0.1:$GW_PORT" -device $((100 + i)) \
        -master "$MASTER" -interval "$INTERVAL" -count "$COUNT" \
        >"$TMP/sensornode$i.log" 2>&1 &
    NODE_PIDS="$NODE_PIDS $!"
    smoke_defer_pid "$!"
    i=$((i + 1))
done

# A third of the way in, kill the endpoint outright (no shutdown path:
# the WAL is the only survivor), hold the outage, then reboot it.
sleep 1
echo "smoke-edge: SIGKILL endpointd (pid $(cat "$TMP/endpoint.pid"))"
kill -9 "$(cat "$TMP/endpoint.pid")"
sleep 1
echo "smoke-edge: rebooting endpointd from its WAL"
boot_endpoint
smoke_await "$(cat "$TMP/endpoint.pid")" "http://127.0.0.1:$EP_PORT/status" "" "$TMP/endpointd.log"

for pid in $NODE_PIDS; do
    wait "$pid" || smoke_fail "sensornode $pid failed"
done

# Every packet stored exactly once: wait (up to 20 s) for the drain loop
# to deliver the backlog, then compare the stored point count.
points=""
tries=0
while [ "$tries" -lt 100 ]; do
    STATUS="$(curl -s "http://127.0.0.1:$EP_PORT/status")"
    points="$(printf '%s\n' "$STATUS" | sed -n 's/.*"points":\([0-9]*\).*/\1/p')"
    [ "$points" = "$TOTAL" ] && break
    sleep 0.2
    tries=$((tries + 1))
done
[ "$points" = "$TOTAL" ] ||
    smoke_fail "endpoint stores ${points:-no} points, want $TOTAL sent (status: $STATUS)" "$TMP/gatewayd.log"

i=1
while [ "$i" -le "$NODES" ]; do
    dev="$(printf '00:00:00:00:00:00:00:%02x' $((100 + i)))"
    curl -s "http://127.0.0.1:$EP_PORT/export?device=$dev" | tail -n +2 >"$TMP/export$i.csv"
    rows="$(wc -l <"$TMP/export$i.csv")"
    seqs="$(cut -d, -f2 "$TMP/export$i.csv" | sort -u | wc -l)"
    [ "$rows" -eq "$COUNT" ] && [ "$seqs" -eq "$COUNT" ] ||
        smoke_fail "device $dev: $rows rows, $seqs distinct seqs, want $COUNT of each"
    i=$((i + 1))
done

METRICS="$(curl -s "http://127.0.0.1:$GW_DEBUG_PORT/metrics")"
drained="$(printf '%s\n' "$METRICS" | awk '$1 == "uplink_drained_total" { print $2 }')"
[ -n "$drained" ] && [ "$drained" -gt 0 ] ||
    smoke_fail "gatewayd drained nothing (uplink_drained_total '$drained'): the outage never reached its queue" "$TMP/gatewayd.log"
sent="$(printf '%s\n' "$METRICS" | awk '$1 == "uplink_sent_total" { print $2 }')"

echo "smoke-edge: OK ($TOTAL packets stored exactly once across an endpoint SIGKILL; gatewayd sent $sent, drained $drained)"
