#!/bin/sh
# worker_smoke.sh — distributed-execution smoke test against the real
# binaries. Flow:
#
#   1. start an adasimd coordinator with a small lease batch
#   2. attach two real adasim-worker processes
#   3. submit a report sized to span many leases
#   4. SIGKILL one worker mid-flight (no deregister — the lease must
#      expire and its batch re-queue)
#   5. the report must finish done, with remote runs on the fleet
#   6. its results must be byte-identical to the same spec run on a
#      single-node reference daemon with no workers attached
#
# Exercises what the Go tests cannot: real worker processes over real
# sockets, an OS-level kill, and the lease-expiry path wall-clock end
# to end.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# Loopback ports derived from the PID keep parallel CI jobs apart.
PORT=$((20000 + $$ % 20000))
REF_PORT=$((PORT + 1))
ADDR="http://127.0.0.1:$PORT"
REF_ADDR="http://127.0.0.1:$REF_PORT"

echo "==> building adasimd, adasim-worker, and adasimctl"
$GO build -o "$WORK/adasimd" ./cmd/adasimd
$GO build -o "$WORK/adasim-worker" ./cmd/adasim-worker
$GO build -o "$WORK/adasimctl" ./cmd/adasimctl

wait_health() {
    addr=$1
    for _ in $(seq 1 100); do
        if "$WORK/adasimctl" -addr "$addr" health >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: daemon at $addr never became healthy" >&2
    exit 1
}

echo "==> starting coordinator"
# One local shard and a batch of 4: a multi-hundred-run report spans
# many leases, so a worker death mid-flight is all but guaranteed to
# orphan at least one lease. A short TTL keeps the expiry path fast.
"$WORK/adasimd" -addr "127.0.0.1:$PORT" -workers 1 \
    -worker-batch 4 -lease-ttl 2s >"$WORK/coord.log" 2>&1 &
PIDS="$PIDS $!"
wait_health "$ADDR"

echo "==> attaching two workers"
"$WORK/adasim-worker" -coordinator "$ADDR" -name smoke-a -parallelism 2 \
    >"$WORK/worker-a.log" 2>&1 &
WORKER_A=$!
PIDS="$PIDS $WORKER_A"
"$WORK/adasim-worker" -coordinator "$ADDR" -name smoke-b -parallelism 2 \
    >"$WORK/worker-b.log" 2>&1 &
PIDS="$PIDS $!"
for _ in $(seq 1 100); do
    if "$WORK/adasimctl" -addr "$ADDR" workers | grep -q '"connected": *2'; then
        break
    fi
    sleep 0.1
done
"$WORK/adasimctl" -addr "$ADDR" workers | grep -q '"connected": *2' || {
    echo "FAIL: workers never registered" >&2
    cat "$WORK/worker-a.log" "$WORK/worker-b.log" >&2
    exit 1
}

# The workload: the fault-free driving-performance table across every
# scenario and gap, enough reps to span dozens of leases.
REPORT_FLAGS="-artifacts table4 -reps 12 -steps 3000 -seed 7"

echo "==> submitting report"
# shellcheck disable=SC2086
"$WORK/adasimctl" -addr "$ADDR" report $REPORT_FLAGS >"$WORK/submit.json"
ID=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$WORK/submit.json" | head -1)
[ -n "$ID" ] || { echo "FAIL: no task id in $(cat "$WORK/submit.json")" >&2; exit 1; }
echo "    task $ID"

# Let the fleet get properly mid-flight, then SIGKILL one worker: its
# lease gets no completion and no deregister — only TTL expiry can
# recover the batch.
sleep 1
echo "==> SIGKILL worker smoke-a"
kill -9 "$WORKER_A"
wait "$WORKER_A" 2>/dev/null || true

echo "==> waiting for task $ID"
"$WORK/adasimctl" -addr "$ADDR" task wait -id "$ID" >"$WORK/final.json"
grep -q '"status": *"done"' "$WORK/final.json" || {
    echo "FAIL: report did not finish done after worker kill:" >&2
    cat "$WORK/final.json" >&2
    cat "$WORK/coord.log" >&2
    exit 1
}
"$WORK/adasimctl" -addr "$ADDR" task results -id "$ID" >"$WORK/distributed.json"

echo "==> checking the fleet actually executed remote runs"
"$WORK/adasimctl" -addr "$ADDR" workers >"$WORK/workers.json"
grep -q '"remote_runs": *[1-9]' "$WORK/workers.json" || {
    echo "FAIL: fleet reports zero remote runs; the distributed path never ran" >&2
    cat "$WORK/workers.json" >&2
    exit 1
}

echo "==> running single-node reference"
"$WORK/adasimd" -addr "127.0.0.1:$REF_PORT" -workers 2 >"$WORK/ref.log" 2>&1 &
PIDS="$PIDS $!"
wait_health "$REF_ADDR"
# shellcheck disable=SC2086
"$WORK/adasimctl" -addr "$REF_ADDR" report $REPORT_FLAGS >"$WORK/refsubmit.json"
REF_ID=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$WORK/refsubmit.json" | head -1)
"$WORK/adasimctl" -addr "$REF_ADDR" task wait -id "$REF_ID" >/dev/null
"$WORK/adasimctl" -addr "$REF_ADDR" task results -id "$REF_ID" >"$WORK/reference.json"

echo "==> comparing distributed results against the single-node reference"
if ! cmp -s "$WORK/distributed.json" "$WORK/reference.json"; then
    echo "FAIL: distributed results differ from the single-node reference" >&2
    exit 1
fi

echo "PASS: report $ID survived a worker SIGKILL and matches single-node bytes"
