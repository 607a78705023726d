#!/usr/bin/env bash
# pocfleet end-to-end determinism smoke (CI's fleet-smoke job, also
# runnable locally). Sweeps the 12-cell golden grid and proves the
# byte-stability contract from the outside:
#
#   1. -workers 4 sweep writes the merged report
#   2. -workers 1 sweep must hash-identically (worker invariance)
#   3. the run must match the committed testdata/fleet_golden.json
#      fixture, with drift diagnostics naming the exact cell
#   4. a journaled sweep rerun from its own state dir (pure resume,
#      every cell replayed) must reproduce the same hash
#   5. a -cachefile sweep persists the feasibility cache; a second
#      sweep warm-started from that file must hash-identically
#      (persistence is a speedup, never a result change) and, since it
#      computes nothing new, re-save the file byte for byte
#   6. a -cold sweep, every cell with its own feasibility cache, must
#      hash-identically (cache sharing never changes a result)
#   7. a 24-network GML corpus written by zoogen, swept with -corpus,
#      must hash identically at -workers 1 and 4 (the corpus path
#      builds its instance from files, not the generator)
#
# Before any sweep it checks that -update-golden without -golden is
# refused (exit nonzero, no report written).
#
# Artifacts (reports, hashes, the resume journal, the corpus) are left in
# $SMOKE_DIR for CI to upload on failure.
set -euo pipefail

SMOKE_DIR=${SMOKE_DIR:-$(mktemp -d /tmp/fleet-smoke.XXXXXX)}
mkdir -p "$SMOKE_DIR"
BIN="$SMOKE_DIR/pocfleet"
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)

log() { echo "fleet-smoke: $*"; }
fail() {
    log "FAIL: $*"
    exit 1
}

cd "$REPO_ROOT"
log "building pocfleet and zoogen"
go build -o "$BIN" ./cmd/pocfleet
go build -o "$SMOKE_DIR/zoogen" ./cmd/zoogen

log "-update-golden without -golden must be refused before any sweep"
if "$BIN" -update-golden -out "$SMOKE_DIR/refused.json" >"$SMOKE_DIR/refused.log" 2>&1; then
    fail "-update-golden without -golden exited 0"
fi
[ ! -e "$SMOKE_DIR/refused.json" ] || fail "-update-golden without -golden still swept and wrote a report"

log "sweeping golden grid (-workers 4)"
"$BIN" -grid golden -workers 4 -out "$SMOKE_DIR/fleet_w4.json" | tee "$SMOKE_DIR/w4.log"
HASH_W4=$(sed -n 's/.*sha256 \([0-9a-f]*\)).*/\1/p' "$SMOKE_DIR/w4.log")
[ -n "$HASH_W4" ] || fail "could not extract report hash from -workers 4 run"

log "sweeping golden grid (-workers 1)"
HASH_W1=$("$BIN" -grid golden -workers 1 -hash)
echo "$HASH_W1" > "$SMOKE_DIR/hash_w1.txt"
[ "$HASH_W1" = "$HASH_W4" ] || fail "worker invariance broken: -workers 1 => $HASH_W1, -workers 4 => $HASH_W4"
log "worker invariance holds: $HASH_W4"

log "checking against committed golden fixture"
"$BIN" -grid golden -workers 4 -golden testdata/fleet_golden.json \
    || fail "golden fixture drift (see DRIFT lines above for the exact cells)"

log "journaled sweep + pure resume"
STATE="$SMOKE_DIR/state"
"$BIN" -grid golden -workers 4 -state "$STATE" -hash > "$SMOKE_DIR/hash_journaled.txt"
HASH_J=$(cat "$SMOKE_DIR/hash_journaled.txt")
[ "$HASH_J" = "$HASH_W4" ] || fail "journaled sweep hash $HASH_J != $HASH_W4"
# Rerun against the completed journal: every cell replays from disk
# (digest-verified), no cell re-runs, bytes must not move.
HASH_R=$("$BIN" -grid golden -workers 4 -state "$STATE" -hash)
[ "$HASH_R" = "$HASH_W4" ] || fail "resumed sweep hash $HASH_R != $HASH_W4"
log "resume reproduces $HASH_R from $(ls "$STATE" | grep -cv manifest) journaled cells"

log "persisted feasibility cache (-cachefile): cold save, warm replay"
CACHE="$SMOKE_DIR/fleet.pocfcache"
HASH_COLD=$("$BIN" -grid golden -workers 4 -cachefile "$CACHE" -hash)
[ "$HASH_COLD" = "$HASH_W4" ] || fail "cachefile cold sweep hash $HASH_COLD != $HASH_W4"
[ -s "$CACHE" ] || fail "cachefile sweep left no cache file at $CACHE"
cp "$CACHE" "$CACHE.cold"
HASH_WARM=$("$BIN" -grid golden -workers 4 -cachefile "$CACHE" -hash)
[ "$HASH_WARM" = "$HASH_W4" ] || fail "cachefile warm sweep hash $HASH_WARM != $HASH_W4"
cmp "$CACHE.cold" "$CACHE" || fail "cachefile warm sweep re-saved a different cache file"
log "warm start from $(wc -c < "$CACHE")-byte cache reproduces $HASH_WARM"

log "sweeping golden grid without cache sharing (-cold)"
HASH_NOSHARE=$("$BIN" -grid golden -workers 4 -cold -hash)
echo "$HASH_NOSHARE" > "$SMOKE_DIR/hash_cold.txt"
[ "$HASH_NOSHARE" = "$HASH_W4" ] || fail "-cold sweep hash $HASH_NOSHARE != shared sweep $HASH_W4"
log "-cold reproduces $HASH_NOSHARE"

log "sweeping a zoogen GML corpus (-corpus, -workers 4 and 1)"
CORPUS="$SMOKE_DIR/corpus"
"$SMOKE_DIR/zoogen" -networks 24 -summary=false -out "$CORPUS"
HASH_C4=$("$BIN" -corpus "$CORPUS" -workers 4 -hash)
HASH_C1=$("$BIN" -corpus "$CORPUS" -workers 1 -hash)
echo "$HASH_C4" > "$SMOKE_DIR/hash_corpus.txt"
[ "$HASH_C1" = "$HASH_C4" ] || fail "corpus worker invariance broken: -workers 1 => $HASH_C1, -workers 4 => $HASH_C4"
log "corpus sweep reproduces $HASH_C4"

log "PASS"
