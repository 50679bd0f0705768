#!/usr/bin/env bash
# CI smoke for the serve daemon: replays ~50 mixed requests — healthy
# warm queries, a worker-pinning hang, a queue-expired deadline, an
# injected panic, a malformed line and a ping — through `klest serve`
# and requires every hostile input to terminate as a typed response and
# the drain to finish clean (exit 0). The outer `timeout` is the proof
# obligation: if admission control or cooperative cancellation ever
# regresses into a real hang, CI kills the process and the job fails
# instead of idling.
#
# Usage: scripts/serve_smoke.sh
set -eu

cd "$(dirname "$0")/.."

cargo build --release --offline -q -p klest-cli

req="SERVE_SMOKE_requests.jsonl"
out="SERVE_SMOKE_responses.jsonl"
tiny='"gates":8,"samples":16,"area_fraction":0.1'
hier='"mode":"hier","gates":40,"circuit_seed":3,"blocks":4,"area_fraction":0.1'

{
  # One worker: "pin" hangs until its 300 ms deadline trips, so the
  # 1 ms deadline behind it must expire in the queue.
  echo "{\"id\":\"pin\",\"inject_hang_ms\":30000,\"deadline_ms\":300,$tiny}"
  echo "{\"id\":\"expired\",\"deadline_ms\":1,$tiny}"
  echo "{\"id\":\"boom\",\"inject_panic\":true,$tiny}"
  echo 'this line is not json'
  echo '{"op":"ping","id":"hb"}'
  for i in $(seq 1 45); do
    echo "{\"id\":\"w$i\",$tiny}"
  done
  # Three hierarchical queries on one worker: the first extracts all
  # four block models cold, the second reuses them all from the shared
  # block cache, the third re-times a one-gate edit that re-extracts
  # exactly one block. Gated on the per-request hier counters below.
  echo "{\"id\":\"hcold\",$hier}"
  echo "{\"id\":\"hwarm\",$hier}"
  echo "{\"id\":\"hedit\",$hier,\"edit_gate\":30,\"edit_scale\":0.4}"
  # One traced query (the daemon runs with --trace-responses) and a
  # stats probe at the end of the stream, schema-gated below.
  echo "{\"id\":\"traced\",\"trace\":true,$tiny}"
  echo '{"op":"stats","id":"probe"}'
  echo '{"op":"shutdown"}'
} > "$req"

timeout 120 ./target/release/klest serve \
  --workers 1 --queue-depth 64 --trace-responses --requests "$req" > "$out"

check() {
  if ! grep -q "$1" "$out"; then
    echo "error: serve smoke output is missing: $1" >&2
    echo "--- responses ---" >&2
    cat "$out" >&2
    exit 1
  fi
}

# The hang is broken cooperatively by its deadline.
check '"id":"pin".*"status":"\(cancelled\|salvaged\)"'
# The queued 1 ms deadline is shed without consuming the worker.
check '"id":"expired".*"reason":"deadline_expired"'
# The injected panic is isolated as a typed fault (after one retry).
check '"id":"boom".*"status":"fault"'
# The malformed line gets a typed null-id bad_request.
check '"id":null.*"status":"bad_request"'
# The ping is answered.
check '"id":"hb".*"status":"pong"'
# The traced query carries a trace object with stage wall times.
check '"id":"traced".*"trace":{"trace_id":"'
check '"id":"traced".*"artifacts_warm":{"mesh":'
check '"id":"traced".*"stages":\[.*"wall_ns":'
# The stats probe answers with the full introspection schema.
check '"id":"probe".*"status":"stats"'
check '"status":"stats".*"queue":{"depth":'
check '"status":"stats".*"capacity":'
check '"status":"stats".*"requests":{"admitted":'
# Refused input is counted: the malformed line ahead of the probe is a
# bad request, and no admitted query was refused.
check '"status":"stats".*"requests":{[^}]*"bad_requests":1,"rejected":0}'
check '"status":"stats".*"latency_ms":{"warm":{"count":'
check '"status":"stats".*"p50":'
check '"status":"stats".*"p95":'
check '"status":"stats".*"p99":'
check '"status":"stats".*"cache":{"hits":'
check '"status":"stats".*"hit_ratio":'
# The block-model layer shows up in both the counter and size sections
# of the stats schema (values may be zero at probe time: ops are
# answered inline, ahead of queued queries).
check '"status":"stats".*"block":{"hits":'
check '"status":"stats".*"sizes":{"mesh":'
# The hier triple proves block-model sharing through the daemon cache:
# cold extracts all 4, warm reuses all 4, the edit re-extracts exactly 1.
check '"id":"hcold".*"hier":{"blocks":4,"cache_hits":0,"extracted":4}'
check '"id":"hwarm".*"hier":{"blocks":4,"cache_hits":4,"extracted":0}'
check '"id":"hedit".*"edit":{"gate":30,"extracted":1,'
check '"status":"stats".*"utilization":'
check '"status":"stats".*"slo":{"target":'
check '"status":"stats".*"error_budget_remaining":'
# The drain finishes clean and carries the SLO window.
check '"status":"drained".*"slo_target":'
check '"status":"drained".*"clean":true'

completed=$(grep -c '"status":"completed"' "$out")
if [ "$completed" -ne 49 ]; then
  echo "error: expected all 49 healthy queries to complete, got $completed" >&2
  exit 1
fi

rm -f "$req" "$out"
echo "serve smoke ok: 49 completed, stats+trace+hier schema gated, drain clean"
