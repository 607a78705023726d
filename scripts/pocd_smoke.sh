#!/usr/bin/env bash
# pocd end-to-end crash-recovery smoke (CI's pocd-smoke job, also
# runnable locally). Exercises the daemon's whole robustness story:
#
#   1. fresh start: serve /readyz, admit members and flows, bill an
#      epoch, read every query endpoint and /metrics
#   2. SIGTERM: drain, seal the journal, exit 0
#   3. restart from the sealed journal: recovered obs export must be
#      byte-identical to what the live daemon last served, and so must
#      /v1/status but for its seq
#   4. kill -9 mid-life: restart recovers, and `pocd -replay` (a clean
#      sequential replay of the surviving journal) must hash-match the
#      recovered daemon's export
#
# Artifacts (journal, exports, daemon logs) are left in $SMOKE_DIR for
# CI to upload on failure.
set -euo pipefail

SMOKE_DIR=${SMOKE_DIR:-$(mktemp -d /tmp/pocd-smoke.XXXXXX)}
mkdir -p "$SMOKE_DIR"
ADDR=${ADDR:-127.0.0.1:18423}
BASE="http://$ADDR"
JOURNAL="$SMOKE_DIR/poc.journal"
BIN="$SMOKE_DIR/pocd"
PID=""

log() { echo "pocd-smoke: $*"; }
fail() {
    log "FAIL: $*"
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    exit 1
}
trap '[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true' EXIT

wait_ready() {
    for _ in $(seq 1 240); do
        if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.5
    done
    fail "daemon never became ready (see $1)"
}

post() { curl -fsS -X POST "$BASE$1" -d "$2" >/dev/null || fail "POST $1 $2"; }

log "building pocd into $SMOKE_DIR"
go build -o "$BIN" ./cmd/pocd

# --- 1. fresh start + API exercise -----------------------------------
"$BIN" -journal "$JOURNAL" -listen "$ADDR" >"$SMOKE_DIR/daemon1.log" 2>&1 &
PID=$!
wait_ready "$SMOKE_DIR/daemon1.log"
log "daemon up (pid $PID)"

post /v1/members '{"name":"lmp-a","kind":"lmp","router":0}'
post /v1/members '{"name":"csp-b","kind":"csp","router":2}'
post /v1/qos '{"name":"gold","weight":4,"price":2.5,"max_latency_km":9000}'
post /v1/flows '{"flows":[{"src":"lmp-a","dst":"csp-b","gbps":1},{"src":"csp-b","dst":"lmp-a","gbps":2,"class":"gold"}]}'
post /v1/epoch '{"seconds":3600}'
post /v1/flows/stop '{"ids":[0]}'
curl -fsS "$BASE/v1/status" >"$SMOKE_DIR/status1.json" || fail "GET /v1/status"
grep -qx '  "seq": 6' "$SMOKE_DIR/status1.json" \
    || fail "/v1/status after six POSTs does not report seq 6 (see $SMOKE_DIR/status1.json)"
curl -fsS "$BASE/v1/utilization" >/dev/null || fail "GET /v1/utilization"
curl -fsS "$BASE/v1/qos" >/dev/null || fail "GET /v1/qos"
curl -fsS "$BASE/v1/members" >/dev/null || fail "GET /v1/members"
curl -fsS "$BASE/v1/flows?id=1" >/dev/null || fail "GET /v1/flows?id=1"
grep -q pocd_ready <(curl -fsS "$BASE/metrics") || fail "GET /metrics"
curl -fsS "$BASE/v1/obs" >"$SMOKE_DIR/live1.json" || fail "GET /v1/obs"
log "API exercised: members, qos, flows, epoch, queries, metrics"

# --- 2. SIGTERM must drain, seal, exit 0 -----------------------------
kill -TERM "$PID"
if ! wait "$PID"; then fail "SIGTERM exit was nonzero (see $SMOKE_DIR/daemon1.log)"; fi
PID=""
grep -q "journal sealed" "$SMOKE_DIR/daemon1.log" || fail "daemon did not report sealing"
"$BIN" -journal "$JOURNAL" -replay >"$SMOKE_DIR/replay1.txt"
grep -q "sealed:   true" "$SMOKE_DIR/replay1.txt" || fail "journal not sealed after SIGTERM"
log "SIGTERM: clean exit, journal sealed"

# --- 3. restart from sealed journal ----------------------------------
"$BIN" -journal "$JOURNAL" -listen "$ADDR" >"$SMOKE_DIR/daemon2.log" 2>&1 &
PID=$!
wait_ready "$SMOKE_DIR/daemon2.log"
grep -q "recovered journal" "$SMOKE_DIR/daemon2.log" || fail "restart did not recover the journal"
curl -fsS "$BASE/v1/obs" >"$SMOKE_DIR/recovered1.json" || fail "GET /v1/obs after restart"
cmp -s "$SMOKE_DIR/live1.json" "$SMOKE_DIR/recovered1.json" \
    || fail "recovered obs export differs from pre-shutdown export"
# The seal record took seq 7, so only the "seq" line may differ.
curl -fsS "$BASE/v1/status" >"$SMOKE_DIR/status2.json" || fail "GET /v1/status after restart"
cmp -s <(grep -v '^  "seq": ' "$SMOKE_DIR/status1.json") <(grep -v '^  "seq": ' "$SMOKE_DIR/status2.json") \
    || fail "recovered /v1/status differs from pre-shutdown status beyond its seq"
log "restart: recovered export and status byte-identical"

# --- 4. kill -9, then recover and hash-match a clean replay ----------
post /v1/epoch '{"seconds":1800}'
post /v1/flows '{"flows":[{"src":"lmp-a","dst":"csp-b","gbps":0.5}]}'
curl -fsS "$BASE/v1/obs" >"$SMOKE_DIR/live2.json" || fail "GET /v1/obs before crash"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
"$BIN" -journal "$JOURNAL" -replay -export "$SMOKE_DIR/replay2.json" >"$SMOKE_DIR/replay2.txt"
grep -q "sealed:   false" "$SMOKE_DIR/replay2.txt" || fail "kill -9 should leave an unsealed journal"
cmp -s "$SMOKE_DIR/live2.json" "$SMOKE_DIR/replay2.json" \
    || fail "sequential replay diverges from the crashed daemon's last export"

"$BIN" -journal "$JOURNAL" -listen "$ADDR" >"$SMOKE_DIR/daemon3.log" 2>&1 &
PID=$!
wait_ready "$SMOKE_DIR/daemon3.log"
curl -fsS "$BASE/v1/obs" >"$SMOKE_DIR/recovered2.json" || fail "GET /v1/obs after crash recovery"
cmp -s "$SMOKE_DIR/live2.json" "$SMOKE_DIR/recovered2.json" \
    || fail "crash-recovered export differs from pre-crash export"
kill -TERM "$PID"
wait "$PID" || fail "final SIGTERM exit was nonzero"
PID=""
log "kill -9: recovery byte-identical to clean sequential replay"
log "PASS (artifacts in $SMOKE_DIR)"
