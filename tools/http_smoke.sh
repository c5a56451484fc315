#!/usr/bin/env bash
# Smoke test for the embedded observability HTTP server: starts the
# live_dashboard example on an ephemeral port, curls every endpoint, and
# validates the JSON payloads. Used by CI next to `ctest -L http`.
#
# Usage: tools/http_smoke.sh [path-to-live_dashboard]
set -euo pipefail

BIN="${1:-build/examples/live_dashboard}"
if [[ ! -x "$BIN" ]]; then
  echo "FAIL: $BIN not found or not executable (build the project first)" >&2
  exit 1
fi

LOG="$(mktemp)"
CKPT="$(mktemp -d)"
cleanup() {
  kill "$PID" 2>/dev/null || true
  wait "$PID" 2>/dev/null || true
  rm -f "$LOG"
  rm -rf "$CKPT"
}
trap cleanup EXIT

"$BIN" --port 0 --serve-seconds 30 --checkpoint "$CKPT" >"$LOG" 2>&1 &
PID=$!

# The example prints "serving http://127.0.0.1:PORT" once the socket is up.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's|^serving http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$LOG")"
  [[ -n "$PORT" ]] && break
  kill -0 "$PID" 2>/dev/null || { echo "FAIL: example died"; cat "$LOG"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: no port in log"; cat "$LOG"; exit 1; }
echo "serving on port $PORT"

# Let a few epochs run so progress/state/metrics are non-trivial.
sleep 1.5

fail() { echo "FAIL: $1" >&2; exit 1; }
get() { curl -sf --max-time 5 "http://127.0.0.1:$PORT$1"; }
json_ok() { python3 -c 'import json,sys; json.load(sys.stdin)'; }

[[ "$(get /healthz)" == "ok" ]] || fail "/healthz"
echo "ok /healthz"

METRICS="$(get /metrics)"
grep -q '^# TYPE sstreaming_epochs_total counter' <<<"$METRICS" \
  || fail "/metrics missing TYPE line"
grep -q '^sstreaming_state_bytes{' <<<"$METRICS" \
  || fail "/metrics missing state_bytes gauge"
grep -q '^sstreaming_e2e_latency_micros_count' <<<"$METRICS" \
  || fail "/metrics missing e2e latency histogram"
grep -Eq '^sstreaming_process_uptime_seconds [0-9.]+' <<<"$METRICS" \
  || fail "/metrics missing process uptime gauge"
grep -Eq '^sstreaming_process_rss_bytes [0-9]+' <<<"$METRICS" \
  || fail "/metrics missing process RSS gauge"
echo "ok /metrics"

get /queries | json_ok || fail "/queries is not JSON"
get /queries | python3 -c '
import json, sys
queries = json.load(sys.stdin)
assert queries and queries[0]["name"] == "dashboard", queries
assert queries[0]["lastEpoch"] > 0, queries
' || fail "/queries content"
echo "ok /queries"

get /queries/dashboard | python3 -c '
import json, sys
detail = json.load(sys.stdin)
assert detail["progress"], detail
epoch = detail["progress"][-1]
assert epoch["durationNanos"] > 0, epoch
assert "e2eLatency" in epoch, epoch
' || fail "/queries/dashboard content"
echo "ok /queries/dashboard"

get /queries/dashboard/history | python3 -c '
import json, sys
history = json.load(sys.stdin)
assert history["name"] == "dashboard", history
kinds = [event["event"] for event in history["events"]]
assert kinds[0] == "started", kinds
assert "progress" in kinds, kinds
' || fail "/queries/dashboard/history content"
echo "ok /queries/dashboard/history"

get /queries/dashboard/plan | python3 -c '
import json, sys
plan = json.load(sys.stdin)
assert plan["epochs"] > 0, plan
assert "EXPLAIN ANALYZE" in plan["explain"], plan
def rows(node):
    return node["rowsIn"] + sum(rows(c) for c in node["children"])
assert rows(plan["root"]) > 0, plan
def nodes(node):
    yield node
    for child in node["children"]:
        yield from nodes(child)
# The windowed count ran scheduler stages, and a peak is never below the
# live state size it was taken from.
counts = [n for n in nodes(plan["root"]) if n["name"] == "StatefulAggregate"]
assert len(counts) == 1, plan
assert counts[0]["tasks"] > 0 and counts[0]["stageNanos"] > 0, counts[0]
for node in nodes(plan["root"]):
    assert node["peakStateRows"] >= node["stateRows"], node
' || fail "/queries/dashboard/plan content"
echo "ok /queries/dashboard/plan"

get /queries/dashboard/fingerprint | python3 -c '
import json, sys
fp = json.load(sys.stdin)
assert fp["name"] == "dashboard", fp
assert fp["formatVersion"] >= 1, fp
assert fp["planHash"] and fp["statefulHash"], fp
assert any(op["stateful"] for op in fp["operators"]), fp
' || fail "/queries/dashboard/fingerprint content"
# The fingerprint is a stable identity: two scrapes must be byte-identical
# (map-ordered JSON, no timestamps or counters mixed in).
A="$(get /queries/dashboard/fingerprint)"
B="$(get /queries/dashboard/fingerprint)"
[[ "$A" == "$B" ]] || fail "/queries/dashboard/fingerprint not byte-stable"
echo "ok /queries/dashboard/fingerprint"

get /queries/dashboard/trace | python3 -c '
import json, sys
trace = json.load(sys.stdin)
assert isinstance(trace["traceEvents"], list), trace
' || fail "/queries/dashboard/trace content"
echo "ok /queries/dashboard/trace"

get /queries/dashboard/doctor | python3 -c '
import json, sys
report = json.load(sys.stdin)
assert report["query"] == "dashboard", report
assert report["epochsExamined"] > 0, report
assert report["topVerdict"], report  # a verdict or "healthy", never empty
for finding in report["findings"]:
    assert finding["verdict"] and finding["summary"], finding
    assert finding["suggestion"] and "evidence" in finding, finding
' || fail "/queries/dashboard/doctor content"
echo "ok /queries/dashboard/doctor"

# /profile arms the sampling profiler for a second and returns the window.
get '/profile?seconds=1&hz=199' | python3 -c '
import json, sys
profile = json.load(sys.stdin)
assert profile["hz"] == 199, profile
assert profile["ticks"] > 0, profile
assert isinstance(profile["entries"], list), profile
assert isinstance(profile["collapsed"], list), profile
' || fail "/profile content"
echo "ok /profile"

curl -s --max-time 5 -o /dev/null -w '%{http_code}' \
  "http://127.0.0.1:$PORT/nope" | grep -q 404 || fail "404 handling"
echo "ok 404"

echo "PASS: all endpoints healthy"
