#!/bin/sh
# obs_smoke.sh — end-to-end check of the live observability endpoints.
#
# Starts rpcvalet-live with -obs, scrapes /metrics and /healthz WHILE the
# serving window is still in flight, and asserts:
#   1. /healthz answers "ok";
#   2. /metrics is Prometheus text format (# TYPE lines, counter samples);
#   3. the completed-requests counter is nonzero mid-run (the instruments
#      update live, not at the end of the window).
#
# Sleep emulation keeps the check honest on oversubscribed CI runners: the
# queueing is wall-clock real but service consumes no CPU.
set -eu

ADDR="${OBS_ADDR:-127.0.0.1:19090}"
BIN="$(mktemp -d)/rpcvalet-live"
LOG="$(mktemp)"

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    [ -n "${PID:-}" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$(dirname "$BIN")" "$LOG"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/rpcvalet-live

"$BIN" -dispatch 1x16 -emulation sleep -cores 4 -duration 6s -obs "$ADDR" >"$LOG" 2>&1 &
PID=$!

# Wait for the server to come up (it binds before the first run starts).
i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "obs-smoke: server never came up on $ADDR" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

# Give the in-flight run time to complete some requests, then scrape.
sleep 2

HEALTH="$(curl -sf "http://$ADDR/healthz")"
[ "$HEALTH" = "ok" ] || { echo "obs-smoke: /healthz said '$HEALTH', want 'ok'" >&2; exit 1; }

METRICS="$(curl -sf "http://$ADDR/metrics")"
echo "$METRICS" | grep -q '^# TYPE rpcvalet_requests_completed_total counter$' || {
    echo "obs-smoke: /metrics missing counter TYPE line" >&2
    echo "$METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '^# TYPE rpcvalet_request_latency_seconds histogram$' || {
    echo "obs-smoke: /metrics missing latency histogram" >&2
    exit 1
}

COMPLETED="$(echo "$METRICS" | sed -n 's/^rpcvalet_requests_completed_total[^ ]* //p' | head -1)"
case "$COMPLETED" in
'' | 0)
    echo "obs-smoke: completed counter is '${COMPLETED:-absent}' mid-run, want > 0" >&2
    echo "$METRICS" | grep '^rpcvalet' >&2
    exit 1
    ;;
esac

curl -sf "http://$ADDR/debug/pprof/" >/dev/null || {
    echo "obs-smoke: /debug/pprof/ not serving" >&2
    exit 1
}

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""

echo "obs-smoke: ok (completed=$COMPLETED mid-run on $ADDR)"
