#!/usr/bin/env bash
# Boot/probe/teardown smoke harness for `dayu serve` — the one shell
# block the CI smoke jobs share, so boot loops and probe lists cannot
# drift apart between jobs.
#
# Boots a server over a trace directory, waits for /healthz, probes
# every read endpoint, asserts the repeat /v1/ftg was served from the
# response cache and that /v1/diagnose and /v1/live/diagnostics are the
# bytes `dayu diagnose -json` prints for the same directory, optionally
# exercises the snapshot-history store, and leaves ftg.json/sdg.json in
# the output directory so callers can byte-compare across configurations
# (trace format, history store).
#
# Usage:
#   scripts/serve_smoke.sh -b ./dayu -t traces -o out \
#       [-a 127.0.0.1:8080] [-H history-dir]
set -euo pipefail

dayu="./dayu"
traces=""
out=""
addr="127.0.0.1:8080"
history=""

while getopts "b:t:o:a:H:" opt; do
  case "$opt" in
    b) dayu="$OPTARG" ;;
    t) traces="$OPTARG" ;;
    o) out="$OPTARG" ;;
    a) addr="$OPTARG" ;;
    H) history="$OPTARG" ;;
    *) echo "usage: $0 -b dayu -t traces -o out [-a addr] [-H history-dir]" >&2; exit 2 ;;
  esac
done
if [ -z "$traces" ] || [ -z "$out" ]; then
  echo "serve_smoke: -t traces and -o out are required" >&2
  exit 2
fi
mkdir -p "$out"

serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
}
trap cleanup EXIT

# --- boot ------------------------------------------------------------
args=(-dir "$traces" -addr "$addr" -poll 500ms)
[ -n "$history" ] && args+=(-history "$history")
"$dayu" serve "${args[@]}" &
serve_pid=$!
for _ in $(seq 1 50); do
  if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
    break
  fi
  sleep 0.2
done
if ! curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
  echo "serve_smoke: server at $addr never became healthy" >&2
  exit 1
fi
echo "serve_smoke: up at $addr (traces=$traces)"

# --- probe -----------------------------------------------------------
curl -fsS "http://$addr/healthz" >"$out/healthz.json"
curl -fsS "http://$addr/v1/ftg" -o "$out/ftg.json"
curl -fsS "http://$addr/v1/ftg" -o "$out/ftg-repeat.json"
cmp "$out/ftg.json" "$out/ftg-repeat.json"
curl -fsS "http://$addr/v1/sdg" -o "$out/sdg.json"
# One rule set, one encoding: the server's findings are the CLI's, byte
# for byte, and with no stream in flight the live endpoint shares them.
curl -fsS "http://$addr/v1/diagnose" -o "$out/diagnose.json"
"$dayu" diagnose -traces "$traces" -json >"$out/diagnose-cli.json"
cmp "$out/diagnose.json" "$out/diagnose-cli.json"
curl -fsS "http://$addr/v1/live/diagnostics" -o "$out/live-diagnostics.json"
cmp "$out/diagnose.json" "$out/live-diagnostics.json"
curl -fsS "http://$addr/v1/plan" -o /dev/null
curl -fsS "http://$addr/v1/tasks" -o /dev/null
curl -fsS "http://$addr/metrics" -o "$out/metrics.txt"

# The repeat /v1/ftg must have been a pure response-cache read.
grep 'dayu_serve_cache_hits_total{cache="response"}' "$out/metrics.txt"
hits="$(awk '/dayu_serve_cache_hits_total\{cache="response"\}/ { print $2 }' "$out/metrics.txt")"
test "$hits" -ge 1

# --- events stream ---------------------------------------------------
# A fresh SSE subscriber receives the current state immediately: at
# least one `event: snapshot` whose id is the served snapshot id. curl
# exits 28 when --max-time cuts the (intentionally unbounded) stream —
# that's fine, the captured prefix is what we assert on.
curl -sS -N --max-time 5 "http://$addr/v1/live/events" >"$out/events.log" || true
grep -q '^event: snapshot$' "$out/events.log"
snapshot="$(curl -fsS -D - -o /dev/null "http://$addr/v1/live/ftg" | awk 'tolower($1) == "x-dayu-snapshot:" { gsub(/[^0-9a-f]/, "", $2); print $2 }')"
grep -qx "id: $snapshot" "$out/events.log"
grep -q '^data: ' "$out/events.log"
echo "serve_smoke: /v1/live/events delivered a snapshot event"

# --- history (optional) ---------------------------------------------
if [ -n "$history" ]; then
  curl -fsS "http://$addr/v1/history" -o "$out/history.json"
  grep -q '"id"' "$out/history.json"
  snap_id="$(sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p' "$out/history.json" | head -1)"
  if [ -z "$snap_id" ]; then
    echo "serve_smoke: history listing carries no snapshot id" >&2
    exit 1
  fi
  curl -fsS "http://$addr/v1/history/$snap_id/ftg" -o "$out/history-ftg.json"
  cmp "$out/ftg.json" "$out/history-ftg.json"
  curl -fsS "http://$addr/v1/history/$snap_id/sdg" -o "$out/history-sdg.json"
  cmp "$out/sdg.json" "$out/history-sdg.json"
  echo "serve_smoke: history replay byte-identical to live responses"
fi

# --- teardown --------------------------------------------------------
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
echo "serve_smoke: PASS (traces=$traces)"
