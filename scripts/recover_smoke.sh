#!/bin/sh
# recover_smoke.sh — kill-and-restart recovery smoke test against the
# real daemon binaries. Flow:
#
#   1. start adasimd with -journal-dir and -cache-dir
#   2. submit a slow job, wait until it is running
#   3. SIGKILL the daemon mid-run
#   4. restart it on the same directories
#   5. the job must recover under its original ID and finish done
#   6. its results must be byte-identical to the same spec run on an
#      uninterrupted reference daemon
#
# Exercises the full stack the Go tests cannot: a real process killed
# by the OS, journal replay in main(), and the client talking to both
# daemon generations.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# Two loopback ports derived from the PID keep parallel CI jobs apart.
PORT=$((20000 + $$ % 20000))
REF_PORT=$((PORT + 1))
ADDR="http://127.0.0.1:$PORT"
REF_ADDR="http://127.0.0.1:$REF_PORT"

echo "==> building adasimd and adasimctl"
$GO build -o "$WORK/adasimd" ./cmd/adasimd
$GO build -o "$WORK/adasimctl" ./cmd/adasimctl

JOURNAL="$WORK/journal"
CACHE="$WORK/cache"

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

# The slow job: fault-free runs never terminate early, so 600 reps of
# the full 8000-step horizon keep one worker busy for several seconds —
# plenty of room to kill the daemon mid-run.
SUBMIT_FLAGS="-scenarios 1 -gaps 60 -reps 600 -steps 8000 -seed 7 -fault none -driver"

echo "==> starting daemon (journal=$JOURNAL cache=$CACHE)"
"$WORK/adasimd" -addr "127.0.0.1:$PORT" -workers 1 \
    -journal-dir "$JOURNAL" -cache-dir "$CACHE" >"$WORK/daemon1.log" 2>&1 &
DAEMON_PID=$!
wait_health "$ADDR"

echo "==> submitting slow job"
# shellcheck disable=SC2086
"$WORK/adasimctl" -addr "$ADDR" submit $SUBMIT_FLAGS >"$WORK/submit.json"
ID=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$WORK/submit.json" | head -1)
[ -n "$ID" ] || { echo "FAIL: no task id in $(cat "$WORK/submit.json")" >&2; exit 1; }
echo "    task $ID"

# Let it get properly mid-flight, then kill -9: no drain, no journal
# terminals — exactly the crash the journal exists for.
sleep 1
echo "==> SIGKILL daemon"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "==> restarting daemon on the same directories"
"$WORK/adasimd" -addr "127.0.0.1:$PORT" -workers 1 \
    -journal-dir "$JOURNAL" -cache-dir "$CACHE" >"$WORK/daemon2.log" 2>&1 &
DAEMON_PID=$!
wait_health "$ADDR"
grep -q "journal replay" "$WORK/daemon2.log" || {
    echo "FAIL: restarted daemon logged no journal replay" >&2
    cat "$WORK/daemon2.log" >&2
    exit 1
}

echo "==> waiting for recovered task $ID"
"$WORK/adasimctl" -addr "$ADDR" task wait -id "$ID" >"$WORK/final.json"
grep -q '"status": *"done"' "$WORK/final.json" || {
    echo "FAIL: recovered task did not finish done:" >&2
    cat "$WORK/final.json" >&2
    exit 1
}
"$WORK/adasimctl" -addr "$ADDR" task results -id "$ID" >"$WORK/recovered.json"

echo "==> running uninterrupted reference"
"$WORK/adasimd" -addr "127.0.0.1:$REF_PORT" -workers 1 \
    -cache-dir "$WORK/refcache" >"$WORK/ref.log" 2>&1 &
REF_PID=$!
wait_health "$REF_ADDR"
# shellcheck disable=SC2086
"$WORK/adasimctl" -addr "$REF_ADDR" submit $SUBMIT_FLAGS -wait >"$WORK/reference.json"
kill -9 "$REF_PID" 2>/dev/null || true

echo "==> comparing recovered results against the reference"
if ! cmp -s "$WORK/recovered.json" "$WORK/reference.json"; then
    echo "FAIL: recovered results differ from the uninterrupted reference" >&2
    exit 1
fi

echo "PASS: recovered job $ID is byte-identical to the uninterrupted run"

kill -9 "$DAEMON_PID" 2>/dev/null || true
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
