#!/usr/bin/env bash
# swpd end-to-end smoke: start the daemon as a real separate process,
# hammer it with the mixed load (including injected panics and
# disconnects), drain it via the protocol, then restart it over the
# same artifact and prove the crash-only recovery contract — every id
# the first run solved must come back `cached`, across processes. The
# restarted daemon has no queue at all (`--queue 0`), so the replay also
# proves that a cache hit never takes a queue slot.
#
# Usage: ci/swpd-smoke.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-1}"
ART="${TMPDIR:-/tmp}/swpd-smoke-$$.jsonl"
SOLVED="${TMPDIR:-/tmp}/swpd-smoke-$$.solved"
LOG1="${TMPDIR:-/tmp}/swpd-smoke-$$-run1.log"
LOG2="${TMPDIR:-/tmp}/swpd-smoke-$$-run2.log"
trap 'rm -f "$ART" "$SOLVED" "$LOG1" "$LOG2"' EXIT

cargo build --release -p swp-swpd

scrape_addr() { # logfile -> prints addr once the readiness line lands
  local log="$1" addr=""
  for _ in $(seq 1 150); do
    addr="$(sed -n 's/^swpd listening on //p' "$log" 2>/dev/null | head -1)"
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  echo "swpd never printed its readiness line; log follows:" >&2
  cat "$log" >&2
  return 1
}

echo "== run 1: cold daemon, mixed load, protocol drain =="
./target/release/swpd --addr 127.0.0.1:0 --workers 4 --queue 48 \
  --artifact "$ART" --allow-fault-injection >"$LOG1" 2>&1 &
SWPD1=$!
ADDR1="$(scrape_addr "$LOG1")"

./target/release/swpd-load --smoke --seed "$SEED" --addr "$ADDR1" \
  --solved-out "$SOLVED" --shutdown

# The daemon's own exit code asserts a clean drain (no queued or
# in-flight work left, zero internal errors).
wait "$SWPD1"
test -s "$ART"    # the artifact holds the solved records
test -s "$SOLVED" # ...and the load run recorded which ids they were

echo "== run 2: restart over the artifact, 100% warm replay =="
./target/release/swpd --addr 127.0.0.1:0 --workers 2 --queue 0 \
  --artifact "$ART" --resume >"$LOG2" 2>&1 &
SWPD2=$!
ADDR2="$(scrape_addr "$LOG2")"

./target/release/swpd-load --seed "$SEED" --addr "$ADDR2" \
  --solved-in "$SOLVED" --shutdown
wait "$SWPD2"

echo "swpd smoke OK"
