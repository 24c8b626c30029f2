#!/usr/bin/env bash
# Kill-restart chaos smoke for the durable push-ingest path.
#
# Phase 1 — batch push: starts `dayu serve` with a write-ahead log,
# pushes a workload's traces at it, `kill -9`s the server mid-stream
# (arbitrary byte boundary, possibly mid-WAL-append), restarts it, and
# asserts:
#
#   1. Replay loses nothing: every trace folded before the kill is
#      still served after restart.
#   2. The retrying push client eventually delivers every record.
#   3. /v1/ftg and /v1/sdg responses are byte-identical to the batch
#      CLI (`dayu analyze`) over both the recovered directory and the
#      original source traces.
#
# Phase 2 — live stream: runs a workload with `dayu run -stream`, so
# the tracer ships incremental checkpoints and finals through the same
# WAL path while the workflow executes, kill -9s the server mid-run,
# restarts it, and asserts the stream rides out the crash: the run
# completes undegraded, every partial retracts, and the recovered
# /v1/live/{ftg,sdg} snapshot is byte-identical to /v1/{ftg,sdg} and
# to `dayu analyze` over the traces the run saved locally.
#
# Phase 3 — sharded ingest: starts the server with -shards 4, so the
# kill -9 lands while acknowledged records sit spread across several
# per-shard WAL namespaces, restarts it with the SAME -shards, and
# asserts zero acknowledged loss plus /v1/{ftg,sdg} byte-identity to
# the batch CLI — sharding must not open any new crash window.
#
# Phase 4 — delta stream + SSE: like phase 2 but with `dayu run -delta`
# (checkpoints framed as deltas against the last acknowledged one) and
# an SSE watcher attached to /v1/live/events. The kill -9 lands while
# the server holds per-task delta bases; on restart the WAL replay
# reassembles the persisted partials and reseeds the acked sequence
# map, so in-flight deltas keep folding — and any delta whose base the
# replay could NOT recover is 409 NACKed, pushing the client through
# the cumulative-resync fallback (the run's summary line reports how
# many of each happened). Asserts the run completes undegraded, the
# watcher saw pushed snapshot events, the restarted server still
# serves the event stream, and the recovered live view is
# byte-identical to the batch CLI — delta framing must not open any
# recovery gap cumulative framing doesn't have.
#
# Usage: scripts/chaos_smoke.sh [path-to-dayu-binary]
set -euo pipefail

dayu="${1:-./dayu}"
addr="127.0.0.1:18080"
workdir="$(mktemp -d)"
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill -9 "$serve_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

src="$workdir/src"
dir="$workdir/traces"
wal="$workdir/wal"
mkdir -p "$dir"

"$dayu" run -workflow pyflextrkr -traces "$src" >/dev/null
total="$(find "$src" -name '*.trace.*' | wc -l)"
echo "chaos: $total source traces"

# fsync-always and a small admission queue slow ingest enough that the
# kill below lands mid-stream instead of after the push completes.
# serve_shards, when set, adds -shards N (phase 3).
serve_shards=""
start_serve() {
  "$dayu" serve -dir "$dir" -wal "$wal" -addr "$addr" -poll 200ms \
    -wal-fsync always -ingest-queue 2 \
    ${serve_shards:+-shards "$serve_shards"} &
  serve_pid=$!
  for _ in $(seq 1 50); do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "chaos: server never became healthy" >&2
  return 1
}

task_count() {
  curl -fsS "http://$addr/v1/tasks" | grep -c '"file":' || true
}

start_serve

# Push in the background with a generous retry budget (it must ride
# out the kill and the restart), then kill -9 the server mid-stream.
"$dayu" push -traces "$src" -server "http://$addr" -attempts 200 >"$workdir/push.log" 2>&1 &
push_pid=$!
sleep 0.05
kill -9 "$serve_pid"
serve_pid=""
echo "chaos: killed serve mid-stream"

folded_before="$(find "$dir" -name '*.trace.*' | wc -l)"
echo "chaos: $folded_before traces folded before the kill"

start_serve
echo "chaos: restarted"

# Gate 1: startup replay recovers at least everything already folded
# (WAL replay can only add acknowledged records, never lose them).
recovered="$(task_count)"
if [ "$recovered" -lt "$folded_before" ]; then
  echo "chaos: FAIL: recovered $recovered tasks < $folded_before folded before kill" >&2
  exit 1
fi
echo "chaos: recovered $recovered tasks after restart"

# Gate 2: the retrying client delivers everything. The original push
# should finish against the restarted server; a rerun is idempotent
# (duplicates are acknowledged, not re-applied) and covers the case
# where it gave up while the server was down.
wait "$push_pid" || true
"$dayu" push -traces "$src" -server "http://$addr" -attempts 50

for _ in $(seq 1 100); do
  if [ "$(task_count)" -eq "$total" ]; then
    break
  fi
  sleep 0.2
done
final="$(task_count)"
if [ "$final" -ne "$total" ]; then
  echo "chaos: FAIL: $final tasks served, want $total" >&2
  exit 1
fi
echo "chaos: all $total tasks delivered"

# A single-shard server is shard 0: every record above went through the
# log under wal/shard-0/ (its fold checkpoint is there to show for it),
# and nothing was written to the flat root.
if [ ! -s "$wal/shard-0/checkpoint" ] || [ -e "$wal/checkpoint" ] || ls "$wal"/wal-*.seg >/dev/null 2>&1; then
  echo "chaos: FAIL: single-shard WAL did not live under $wal/shard-0/" >&2
  ls -R "$wal" >&2
  exit 1
fi

# Gate 3: byte-identical to the batch CLI — over the recovered
# directory and over the original source traces.
curl -fsS "http://$addr/v1/ftg" -o "$workdir/ftg.json"
curl -fsS "http://$addr/v1/sdg" -o "$workdir/sdg.json"
"$dayu" analyze -traces "$dir" -out "$workdir/out-dir" >/dev/null
cmp "$workdir/out-dir/ftg.json" "$workdir/ftg.json"
"$dayu" analyze -sdg -traces "$dir" -out "$workdir/out-dir-sdg" >/dev/null
cmp "$workdir/out-dir-sdg/sdg.json" "$workdir/sdg.json"
"$dayu" analyze -traces "$src" -out "$workdir/out-src" >/dev/null
cmp "$workdir/out-src/ftg.json" "$workdir/ftg.json"
"$dayu" analyze -sdg -traces "$src" -out "$workdir/out-src-sdg" >/dev/null
cmp "$workdir/out-src-sdg/sdg.json" "$workdir/sdg.json"
echo "chaos: /v1/ftg and /v1/sdg byte-identical to batch dayu analyze"

# ---------------------------------------------------------------------
# Phase 2: live streaming. A fresh server on fresh directories; the
# workload itself is the pusher this time, checkpointing every 32 ops.
kill -9 "$serve_pid" 2>/dev/null || true
serve_pid=""

addr="127.0.0.1:18081"
dir="$workdir/stream-traces"
wal="$workdir/stream-wal"
slocal="$workdir/stream-local"
mkdir -p "$dir"

start_serve
echo "chaos: live-phase server up"

# Stream a run in the background with a retry budget generous enough
# to ride out the kill and restart below. The run must exit zero: a
# non-zero exit means a checkpoint or final was dropped (degraded
# streaming), which this gate treats as a failure.
"$dayu" run -workflow pyflextrkr -traces "$slocal" \
  -stream "http://$addr" -checkpoint-ops 32 -stream-attempts 300 \
  >"$workdir/run.log" 2>&1 &
run_pid=$!
sleep 0.5
kill -9 "$serve_pid"
serve_pid=""
echo "chaos: killed serve mid-run (live phase)"

start_serve
echo "chaos: restarted (live phase)"

if ! wait "$run_pid"; then
  echo "chaos: FAIL: streamed run degraded or failed:" >&2
  tail -5 "$workdir/run.log" >&2
  exit 1
fi
stotal="$(find "$slocal" -name '*.trace.*' | wc -l)"
echo "chaos: streamed run completed ($stotal tasks)"

# Convergence: every final folded, every partial retracted.
for _ in $(seq 1 150); do
  curl -fsS -D "$workdir/live.hdr" "http://$addr/v1/live/ftg" \
    -o "$workdir/live-ftg.json" >/dev/null 2>&1 || true
  partial="$(awk 'tolower($1) == "x-dayu-partial-tasks:" { gsub(/[^0-9]/, "", $2); print $2 }' "$workdir/live.hdr")"
  complete="$(awk 'tolower($1) == "x-dayu-complete-tasks:" { gsub(/[^0-9]/, "", $2); print $2 }' "$workdir/live.hdr")"
  if [ "${partial:-1}" -eq 0 ] && [ "${complete:-0}" -eq "$stotal" ]; then
    break
  fi
  sleep 0.2
done
if [ "${partial:-1}" -ne 0 ] || [ "${complete:-0}" -ne "$stotal" ]; then
  echo "chaos: FAIL: live view never converged (partial=$partial complete=$complete want=$stotal)" >&2
  exit 1
fi
echo "chaos: live view converged ($complete complete, 0 partial)"

# The converged live snapshot is byte-identical to the batch endpoints
# and to the batch CLI over the traces the run saved locally.
curl -fsS "http://$addr/v1/ftg" -o "$workdir/stream-batch-ftg.json"
cmp "$workdir/live-ftg.json" "$workdir/stream-batch-ftg.json"
curl -fsS "http://$addr/v1/live/sdg" -o "$workdir/live-sdg.json"
curl -fsS "http://$addr/v1/sdg" -o "$workdir/stream-batch-sdg.json"
cmp "$workdir/live-sdg.json" "$workdir/stream-batch-sdg.json"
"$dayu" analyze -traces "$slocal" -out "$workdir/out-stream" >/dev/null
cmp "$workdir/out-stream/ftg.json" "$workdir/live-ftg.json"
"$dayu" analyze -sdg -traces "$slocal" -out "$workdir/out-stream-sdg" >/dev/null
cmp "$workdir/out-stream-sdg/sdg.json" "$workdir/live-sdg.json"
echo "chaos: recovered /v1/live/ftg and /v1/live/sdg byte-identical to batch dayu analyze"

# ---------------------------------------------------------------------
# Phase 3: sharded ingest. Fresh directories, -shards 4: pushed records
# spread across per-shard WAL namespaces (wal/shard-<k>/), the kill -9
# lands mid-push, and the restart — with the same shard count — must
# replay every namespace without losing an acknowledged record.
kill -9 "$serve_pid" 2>/dev/null || true
serve_pid=""

addr="127.0.0.1:18082"
dir="$workdir/shard-traces"
wal="$workdir/shard-wal"
mkdir -p "$dir"
serve_shards=4

start_serve
echo "chaos: sharded-phase server up (-shards $serve_shards)"

"$dayu" push -traces "$src" -server "http://$addr" -attempts 200 >"$workdir/shard-push.log" 2>&1 &
push_pid=$!
sleep 0.05
kill -9 "$serve_pid"
serve_pid=""
echo "chaos: killed sharded serve mid-push"

folded_before="$(find "$dir" -name '*.trace.*' | wc -l)"
echo "chaos: $folded_before traces folded before the sharded kill"
if ! ls "$wal"/shard-*/ >/dev/null 2>&1; then
  echo "chaos: FAIL: no per-shard WAL namespaces under $wal" >&2
  exit 1
fi

start_serve
echo "chaos: restarted (sharded phase)"

# Zero acknowledged loss: every trace folded before the kill — plus
# whatever the shard WALs replayed on startup — is still served.
recovered="$(task_count)"
if [ "$recovered" -lt "$folded_before" ]; then
  echo "chaos: FAIL: sharded restart recovered $recovered tasks < $folded_before folded before kill" >&2
  exit 1
fi
echo "chaos: recovered $recovered tasks after sharded restart"

wait "$push_pid" || true
"$dayu" push -traces "$src" -server "http://$addr" -attempts 50

for _ in $(seq 1 100); do
  if [ "$(task_count)" -eq "$total" ]; then
    break
  fi
  sleep 0.2
done
final="$(task_count)"
if [ "$final" -ne "$total" ]; then
  echo "chaos: FAIL: sharded server serves $final tasks, want $total" >&2
  exit 1
fi
echo "chaos: all $total tasks delivered through 4 shards"

# Byte-identity: the shard count must not leak into response bytes.
curl -fsS "http://$addr/v1/ftg" -o "$workdir/shard-ftg.json"
cmp "$workdir/out-src/ftg.json" "$workdir/shard-ftg.json"
curl -fsS "http://$addr/v1/sdg" -o "$workdir/shard-sdg.json"
cmp "$workdir/out-src-sdg/sdg.json" "$workdir/shard-sdg.json"
echo "chaos: sharded /v1/ftg and /v1/sdg byte-identical to batch dayu analyze"

# ---------------------------------------------------------------------
# Phase 4: delta stream + SSE. Fresh directories; the run streams
# delta-framed checkpoints while an SSE watcher follows the live view.
# The kill drops the server's delta bases, so recovery exercises the
# 409 NACK-resync handshake (client falls back to cumulative) on top of
# the WAL replay phase 2 already covers.
kill -9 "$serve_pid" 2>/dev/null || true
serve_pid=""

addr="127.0.0.1:18083"
dir="$workdir/delta-traces"
wal="$workdir/delta-wal"
dlocal="$workdir/delta-local"
mkdir -p "$dir"
serve_shards=""

start_serve
echo "chaos: delta-phase server up"

# The watcher rides the first server incarnation; it dies with the kill
# but must have captured at least one pushed snapshot event by then.
curl -sS -N --max-time 120 "http://$addr/v1/live/events" >"$workdir/sse.log" 2>/dev/null &
sse_pid=$!

"$dayu" run -workflow pyflextrkr -traces "$dlocal" \
  -stream "http://$addr" -delta -checkpoint-ops 32 -stream-attempts 300 \
  >"$workdir/delta-run.log" 2>&1 &
run_pid=$!
sleep 0.5
kill -9 "$serve_pid"
serve_pid=""
echo "chaos: killed serve mid-run (delta phase)"

start_serve
echo "chaos: restarted (delta phase)"

if ! wait "$run_pid"; then
  echo "chaos: FAIL: delta-streamed run degraded or failed:" >&2
  tail -5 "$workdir/delta-run.log" >&2
  exit 1
fi
dtotal="$(find "$dlocal" -name '*.trace.*' | wc -l)"
echo "chaos: delta-streamed run completed ($dtotal tasks)"
grep -E 'deltas' "$workdir/delta-run.log" || true

wait "$sse_pid" 2>/dev/null || true
if ! grep -q '^event: snapshot' "$workdir/sse.log"; then
  echo "chaos: FAIL: SSE watcher never received a snapshot event" >&2
  exit 1
fi
echo "chaos: SSE watcher received $(grep -c '^event: snapshot' "$workdir/sse.log") snapshot events before the kill"

# Convergence on the restarted server: every final folded, every
# partial retracted.
for _ in $(seq 1 150); do
  curl -fsS -D "$workdir/delta-live.hdr" "http://$addr/v1/live/ftg" \
    -o "$workdir/delta-live-ftg.json" >/dev/null 2>&1 || true
  partial="$(awk 'tolower($1) == "x-dayu-partial-tasks:" { gsub(/[^0-9]/, "", $2); print $2 }' "$workdir/delta-live.hdr")"
  complete="$(awk 'tolower($1) == "x-dayu-complete-tasks:" { gsub(/[^0-9]/, "", $2); print $2 }' "$workdir/delta-live.hdr")"
  if [ "${partial:-1}" -eq 0 ] && [ "${complete:-0}" -eq "$dtotal" ]; then
    break
  fi
  sleep 0.2
done
if [ "${partial:-1}" -ne 0 ] || [ "${complete:-0}" -ne "$dtotal" ]; then
  echo "chaos: FAIL: delta live view never converged (partial=$partial complete=$complete want=$dtotal)" >&2
  exit 1
fi
echo "chaos: delta live view converged ($complete complete, 0 partial)"

# The restarted server still pushes events: a fresh subscriber gets the
# current state immediately.
curl -sS -N --max-time 5 "http://$addr/v1/live/events" >"$workdir/sse-restart.log" 2>/dev/null || true
grep -q '^event: snapshot' "$workdir/sse-restart.log"
grep -Eq '^id: [0-9]+' "$workdir/sse-restart.log"
echo "chaos: restarted server streams events"

# Byte-identity: the recovered delta-fed live view matches the batch
# endpoints and the batch CLI over the locally saved traces.
curl -fsS "http://$addr/v1/ftg" -o "$workdir/delta-batch-ftg.json"
cmp "$workdir/delta-live-ftg.json" "$workdir/delta-batch-ftg.json"
curl -fsS "http://$addr/v1/live/sdg" -o "$workdir/delta-live-sdg.json"
curl -fsS "http://$addr/v1/sdg" -o "$workdir/delta-batch-sdg.json"
cmp "$workdir/delta-live-sdg.json" "$workdir/delta-batch-sdg.json"
"$dayu" analyze -traces "$dlocal" -out "$workdir/out-delta" >/dev/null
cmp "$workdir/out-delta/ftg.json" "$workdir/delta-live-ftg.json"
"$dayu" analyze -sdg -traces "$dlocal" -out "$workdir/out-delta-sdg" >/dev/null
cmp "$workdir/out-delta-sdg/sdg.json" "$workdir/delta-live-sdg.json"
echo "chaos: recovered delta-fed live view byte-identical to batch dayu analyze"

echo "chaos: PASS"
