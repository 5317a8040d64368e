#!/usr/bin/env bash
# The full gate: domain lint, typing (when mypy is available), tier-1 tests.
# Everything CI runs, runnable locally in one shot.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lintkit =="
python -m repro.lintkit src/repro tests

echo "== mypy =="
if command -v mypy >/dev/null 2>&1; then
    mypy src/repro
else
    echo "mypy not installed; skipping the typing gate (pip install mypy)"
fi

echo "== tests =="
python -m pytest -x -q

echo "== storage coverage =="
# The durability layer carries a hard coverage floor: the crash matrix,
# the WAL unit tests and the recovery property tests together must keep
# repro.storage above 90%.  Gated on pytest-cov being installed (it is
# an extra: pip install '.[cov]'); CI runs this lane unconditionally.
if python -c "import pytest_cov" >/dev/null 2>&1; then
    python -m pytest tests/storage tests/properties/test_recovery_props.py \
        --cov=repro.storage --cov-report=term-missing:skip-covered \
        --cov-fail-under=90 -q
else
    echo "pytest-cov not installed; skipping the coverage gate (pip install '.[cov]')"
fi

echo "== columnar equivalence =="
# The columnar layout's differential contract: random op mixes driven
# in lockstep against the object layout must produce identical answers
# and identical OpCounters/IOStats (tier-1 runs this too; kept as its
# own lane so a layout divergence is named, not buried).
python -m pytest -x -q tests/properties/test_columnar_equivalence.py

echo "== abort =="
# A failed tree op aborts: a fault at every store call of the inserts
# and deletes of a splitting and merging workload, on both layouts, in
# memory and on a durable store, must leave the tree, its store and
# the WAL as they were (tier-1 runs this too; kept as its own lane so
# an abort divergence is named, not buried).
python -m pytest -x -q tests/core/test_abort_faults.py

echo "== perf smoke =="
# Both layout lanes; each run also executes the object-vs-columnar
# oracle probe and exits non-zero on divergence.  The snapshot written
# must re-score through doctor --bench, and the committed snapshot must
# stay loadable as a baseline.
smoke_json="${TMPDIR:-/tmp}/repro-perf-smoke.json"
python -m repro perf --scale smoke --out "$smoke_json" >/dev/null
python -m repro doctor --bench "$smoke_json" >/dev/null
# The profiler's own page count on the buffered probe tree must equal
# the descent bound: every exact match reads height + 1 pages.
python - "$smoke_json" <<'PY'
import json
import sys
with open(sys.argv[1]) as fh:
    profile = json.load(fh)["profile"]
get = profile["get"]
assert get["ops"] > 0, get
assert get["mean_pages"] == profile["tree_height"] + 1, profile
PY
rm -f "$smoke_json"
python -m repro perf --scale smoke --layout columnar --no-write >/dev/null
python -m repro perf --scale smoke --no-write --baseline BENCH_core.json >/dev/null

echo "== obs smoke =="
# EXPLAIN and a traced workload must run end to end; the JSONL artifact
# must parse back (CI uploads the same file).
obs_trace="${TMPDIR:-/tmp}/repro-trace-smoke.jsonl"
python -m repro explain --n 800 --point 0.3 0.7 >/dev/null
python -m repro explain --n 800 --rect 0.2 0.2 0.6 0.6 --format json >/dev/null
python -m repro trace --n 800 --out "$obs_trace" >/dev/null
python - "$obs_trace" <<'PY'
import sys
from repro.obs import read_jsonl
events = read_jsonl(sys.argv[1])
assert events, "obs smoke produced an empty trace"
PY
# A traced recovery must parse back too, its replays keyed by wal_seq.
obs_recover_dir="${TMPDIR:-/tmp}/repro-recover-trace-smoke"
rm -rf "$obs_recover_dir"
python -m repro recover "$obs_recover_dir" --build --n 500 --sync os \
    --trace "$obs_trace" >/dev/null
python - "$obs_trace" <<'PY'
import sys
from repro.obs import read_jsonl
replays = [e for e in read_jsonl(sys.argv[1]) if e.kind == "wal_replay"]
assert replays, "traced recovery replayed nothing"
assert all("wal_seq" in e.fields for e in replays)
PY
rm -rf "$obs_recover_dir" "$obs_trace"
# The dashboard must drive a full stream in --once mode with all three
# artifact sinks on, the Prometheus exposition must pass the in-tree
# lint, the slow-op records must carry valid EXPLAIN attachments, and
# the metrics time series must be columnar and end at the last op.
top_prom="${TMPDIR:-/tmp}/repro-top-smoke.prom"
top_slow="${TMPDIR:-/tmp}/repro-top-smoke-slow.jsonl"
top_series="${TMPDIR:-/tmp}/repro-top-smoke-series.json"
python -m repro top --once --n 2000 --ops 6000 --slow-ms 0 \
    --prom-out "$top_prom" --slow-out "$top_slow" \
    --metrics-out "$top_series" --metrics-every 500 >/dev/null
python - "$top_prom" "$top_slow" "$top_series" <<'PY'
import json, sys
from repro.obs import lint_prometheus
text = open(sys.argv[1]).read()
problems = lint_prometheus(text)
assert not problems, f"top exposition failed promtext lint: {problems}"
assert "repro_profile_get_latency_us_count" in text
slow = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
assert slow, "slow-ms 0 captured no slow ops"
explained = [r for r in slow if "explain" in r]
assert explained, "no slow query carried an EXPLAIN attachment"
assert all(r["explain"]["pages_touched"] >= 1 for r in explained)
series = json.load(open(sys.argv[3]))["timeseries"]
assert all(
    len(col) == len(series["ops"]) for col in series["metrics"].values()
), "top time-series columns are ragged"
assert "profile.get.latency_us.count" in series["metrics"]
assert series["ops"][-1] == 6000, series["ops"]
PY
rm -f "$top_prom" "$top_slow" "$top_series"

echo "== concurrency =="
# The lockstep/linearizability lane by name: snapshot isolation, the
# deterministic schedule replays, free-running thread runs, the reader
# hammer, crash-under-concurrency cells and the serving wire contract.
# Tier-1 runs these too; the named lane means a concurrency regression
# is reported as one, not buried in the full run.  (The ~30s soak is
# `slow`-marked and runs in the nightly lane: pytest -m slow.)  The
# benchmark's self-tests ride along: their write-count test drives two
# clients through the real batcher and requires that they coalesce.
python -m pytest -x -q tests/concurrency tests/server
# The server under dev mode with warnings as errors: a connection, the
# listener or the loop's wake socket pair left unclosed after shutdown
# is a ResourceWarning, and fails the lane.
python -X dev -W error -m pytest -q tests/server
# The same for the storage layer: a leaked WAL or page-file handle is a
# ResourceWarning, and fails the lane.
python -X dev -W error -m pytest -q tests/storage
python3 perfbench/selftest.py

echo "== serve smoke =="
# A short run of each benchmark lane, every answer checked against the
# benchmark's own model: serve_write is a real repro serve on a WAL
# store with the write batcher and two writers over loopback sockets,
# serve_read an in-memory one with one reader doing gets, ranges and
# kNN.  Then boot a server and require its /metrics exposition to pass
# the Prometheus lint.
serve_json="${TMPDIR:-/tmp}/repro-serve-smoke.json"
for workload in serve_write serve_read; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
        > "$serve_json" 2>/dev/null
    python - "$serve_json" <<'PY'
import json, sys
summary = json.load(open(sys.argv[1]))
assert summary["correct"] is True, f"serve smoke saw wrong answers: {summary}"
assert summary["failed"] == 0, f"serve smoke saw failed ops: {summary}"
PY
done
rm -f "$serve_json"
# The traced pass must still hook every serving layer: a refactor that
# unwraps the app, the batcher, the group commit or a snapshot read
# method reads 0 here.
python3 perfbench/run.py --workload serve_write --seed 1 --seconds 5 \
    --trace 1 > "$serve_json" 2>/dev/null
python - "$serve_json" <<'PY'
import json, sys
summary = json.load(open(sys.argv[1]))
assert summary["correct"] is True, f"traced serve smoke saw wrong answers: {summary}"
assert summary["failed"] == 0, f"traced serve smoke saw failed ops: {summary}"
metrics = summary["metrics"]
for name in (
    "server.batch_wait_us",
    "server.batch_ops_per_commit",
    "server.app_us.insert",
    "core.get_us",
    "core.range_us",
    "core.knn_us",
):
    assert metrics[name]["value"] > 0, f"traced serve smoke lost {name}: {metrics.get(name)}"
PY
rm -f "$serve_json"
python -m repro serve --n 2000 --port 18077 >/dev/null 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
python - <<'PY'
import http.client, json, time
from repro.obs import lint_prometheus
for _ in range(50):
    try:
        conn = http.client.HTTPConnection("127.0.0.1", 18077, timeout=1)
        conn.request("GET", "/health")
        if conn.getresponse().status == 200:
            break
    except OSError:
        pass
    time.sleep(0.2)
conn = http.client.HTTPConnection("127.0.0.1", 18077, timeout=5)
conn.request("POST", "/v1/knn", json.dumps({"point": [0.5, 0.5], "k": 3}))
assert conn.getresponse().read()
conn.request("GET", "/metrics")
problems = lint_prometheus(conn.getresponse().read().decode())
assert not problems, f"serve /metrics failed promtext lint: {problems}"
PY
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
trap - EXIT

echo "== durability smoke =="
# Build a durable store that dies at an injected torn-tail crash, then
# recover it and verify the rebuilt tree — the full loop the crash
# matrix exercises, end to end through the CLI.
durable_dir="${TMPDIR:-/tmp}/repro-durable-smoke"
rm -rf "$durable_dir"
python -m repro recover "$durable_dir" --build \
    --fault 'after-appends=300,tail=torn' \
    --n 3000 --churn 0.2 --sync os >/dev/null
rm -rf "$durable_dir"

echo "== doctor smoke =="
# The guarantee doctor on an adversarial churn workload must pass all
# three verdicts with a clean audit (non-zero exit otherwise), and the
# time-series artifact must parse back.
doctor_series="${TMPDIR:-/tmp}/repro-doctor-smoke.json"
python -m repro doctor --workload storm --n 10000 --churn 0.25 \
    --series-out "$doctor_series" >/dev/null
python - "$doctor_series" <<'PY'
import json, sys
record = json.load(open(sys.argv[1]))
series = record["timeseries"]
assert series["ops"], "doctor smoke produced an empty time series"
assert all(
    len(col) == len(series["ops"]) for col in series["metrics"].values()
), "doctor time-series columns are ragged"
PY
rm -f "$doctor_series"

echo "all checks passed"
