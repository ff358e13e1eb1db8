#!/bin/sh
# smoke_cluster.sh — the end-to-end failover drill against the real
# binaries: boot three endpointd nodes with WAL-backed storage and a
# cluster-mode routerd (R=2, W=2), then let cmd/clusterload pump sealed
# telemetry through the router while a seeded chaos schedule picks a
# victim to SIGKILL mid-ingest. The victim reboots from its WAL, and the
# driver proves the contract from outside: zero acknowledged packets
# lost (byte-checked via merged /history), health degraded — never
# failed — during the outage, and a 503-free recovery window after it.
#
# The driver owns the seeded schedule and writes the victim's index to a
# marker file; this script executes the kill and the restart. Ports are
# fixed but obscure; pass SMOKE_CLUSTER_BASE_PORT to override.
set -eu

SMOKE_NAME="smoke-cluster"
. "$(dirname "$0")/lib.sh"

BASE="${SMOKE_CLUSTER_BASE_PORT:-19080}"
ROUTER_PORT=$((BASE + 3))
DEBUG_PORT=$((BASE + 4))
MASTER="smoke-fleet-master"
SECRET="smoke-cluster-secret"
SEED="${SMOKE_CLUSTER_SEED:-7}"

TMP="$(mktemp -d)"
smoke_defer_dir "$TMP"
MARKER="$TMP/kill.marker"

# The rebooted victim is started by the executor subshell, so its pid
# reaches us only through a file — reap it on every exit path.
smoke_extra_cleanup() {
    if [ -f "$TMP/victim.pid" ]; then
        kill "$(cat "$TMP/victim.pid")" 2>/dev/null || true
    fi
}

go build -o "$TMP/endpointd" ./cmd/endpointd
go build -o "$TMP/routerd" ./cmd/routerd
go build -o "$TMP/clusterload" ./cmd/clusterload

# boot_node <index> — start one WAL-backed endpoint; its data dir
# survives kills, so a restart replays everything it ever acknowledged.
# Its debug listener is node_debug_port <index>.
node_debug_port() { echo $((BASE + 5 + $1)); }
boot_node() {
    idx="$1"
    mkdir -p "$TMP/node$idx"
    "$TMP/endpointd" -listen "127.0.0.1:$((BASE + idx))" -master "$MASTER" \
        -data-dir "$TMP/node$idx" -shards 4 -wal-fsync always \
        -cluster-secret "$SECRET" -debug-addr "127.0.0.1:$(node_debug_port "$idx")" \
        >"$TMP/node$idx.log" 2>&1 &
    echo $!
}

N0_PID="$(boot_node 0)"
N1_PID="$(boot_node 1)"
N2_PID="$(boot_node 2)"
smoke_defer_pid "$N0_PID"
smoke_defer_pid "$N1_PID"
smoke_defer_pid "$N2_PID"

"$TMP/routerd" -listen "127.0.0.1:$ROUTER_PORT" -abp-master 0123456789abcdef \
    -cluster-peers "http://127.0.0.1:$BASE,http://127.0.0.1:$((BASE + 1)),http://127.0.0.1:$((BASE + 2))" \
    -replicas 2 -write-quorum 2 -cluster-secret "$SECRET" \
    -suspect-after 500ms -heartbeat-every 200ms \
    -retry-base 10ms \
    -debug-addr "127.0.0.1:$DEBUG_PORT" >"$TMP/routerd.log" 2>&1 &
ROUTER_PID=$!
smoke_defer_pid "$ROUTER_PID"

# Wait for the router's cluster front, and for every node to answer it.
smoke_await "$ROUTER_PID" "http://127.0.0.1:$ROUTER_PORT/status" '"health":"healthy"' "$TMP/routerd.log"

# The kill executor: when the driver writes the seeded verdict, SIGKILL
# that node (no shutdown path — the WAL is the only survivor), hold the
# outage long enough for the detector to call it, then reboot it.
(
    while [ ! -f "$MARKER" ]; do sleep 0.1; done
    victim="$(cat "$MARKER")"
    case "$victim" in
        0) vpid="$N0_PID" ;;
        1) vpid="$N1_PID" ;;
        2) vpid="$N2_PID" ;;
        *) echo "smoke-cluster: bad victim index '$victim'" >&2; exit 1 ;;
    esac
    echo "smoke-cluster: SIGKILL node $victim (pid $vpid)"
    kill -9 "$vpid"
    sleep 4
    echo "smoke-cluster: rebooting node $victim from its WAL"
    boot_node "$victim" >"$TMP/victim.pid"
) &
EXECUTOR_PID=$!
smoke_defer_pid "$EXECUTOR_PID"

"$TMP/clusterload" -router "http://127.0.0.1:$ROUTER_PORT" -master "$MASTER" \
    -seed "$SEED" -nodes 3 -packets 300 -devices 6 -kill-after 60 \
    -kill-marker "$MARKER" ||
    smoke_fail "FAILED — driver logs above, router log follows" "$TMP/routerd.log"

wait "$EXECUTOR_PID" 2>/dev/null || true

# The router's debug surface must agree: /healthz is 200 again.
HSTATUS="$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$DEBUG_PORT/healthz")"
[ "$HSTATUS" = "200" ] || smoke_fail "GET /healthz returned $HSTATUS after recovery"

# Replica sends overlap per peer (DESIGN.md S45); the gauge that shows
# it must be exported.
METRICS="$(curl -s "http://127.0.0.1:$DEBUG_PORT/metrics")"
printf '%s\n' "$METRICS" | grep -q '^cluster_replica_sends_inflight ' ||
    smoke_fail "/metrics does not export cluster_replica_sends_inflight"

# At R=2, W=2 every acknowledged packet reached both of its owners, so
# no packet was acknowledged without one: the miss counter reads 0.
printf '%s\n' "$METRICS" | grep -qx 'cluster_replica_misses_total 0' ||
    smoke_fail "cluster_replica_misses_total is not 0 at W=R: $(printf '%s\n' "$METRICS" | grep '^cluster_replica_misses_total')"

# The replica hop's shape is chosen by payload size (DESIGN.md S46):
# clusterload sends only lone packets, so every node — the rebooted
# victim included — must have taken them bare on /ingest, never as
# frames on /ingest/batch.
for idx in 0 1 2; do
    NODE_METRICS="$(curl -s "http://127.0.0.1:$(node_debug_port "$idx")/metrics")"
    bare="$(printf '%s\n' "$NODE_METRICS" | awk '$1 == "cloud_ingest_seconds_count" { print $2 }')"
    frames="$(printf '%s\n' "$NODE_METRICS" | awk '$1 == "cloud_ingest_batch_frames_total" { print $2 }')"
    [ -n "$bare" ] && [ "$bare" -gt 0 ] ||
        smoke_fail "node $idx took no bare packet (cloud_ingest_seconds_count '$bare')" "$TMP/node$idx.log"
    [ "$frames" = "0" ] ||
        smoke_fail "node $idx took lone packets as frames (cloud_ingest_batch_frames_total '$frames')" "$TMP/node$idx.log"
    echo "smoke-cluster: node $idx took $bare bare packets and no frame"
done

echo "smoke-cluster: OK (zero acknowledged loss, degraded-not-failed outage, 503-free recovery, lone packets bare)"
