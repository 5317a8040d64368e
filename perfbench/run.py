"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics, from an untraced pass
(counters, throughput) and a traced pass (span times).  Every answer is
checked; see README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from opstream import Mix, clustered_points, uniform_points  # noqa: E402
from served import (  # noqa: E402
    ServedSpec,
    Server,
    launch_loaded,
    measure_served,
    stop_server,
)
from stats import Tally, calibrate, median, percentile  # noqa: E402
from tracing import layer_metrics  # noqa: E402

#: Timed set-ups per untraced run; setup_s is their median.
SETUPS = 5
#: Ops of each kind a workload's main mix leaves out, issued in its side
#: segments.
SIDE_PER_KIND = 1200
SERVED_POINTS = 50_000
KINDS = ("get", "range", "knn", "insert", "delete")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def report(run: dict) -> dict:
    """Print a pass's sample counts and failures to stderr; return it."""
    counts = {k: run["tally"].count(k) for k in KINDS}
    print(
        f"ops per kind {counts}, {run['throughput']:.0f} ops/s in the main "
        f"window, {run['checked']} answers checked; failures: "
        f"{run['tally'].failures}; client CPU {run['client_cpu_us']:.1f} us/op",
        file=sys.stderr,
    )
    return run


def percentiles(tally: Tally, q: float, kinds=KINDS) -> dict:
    """``<kind>_p<q>_us`` of ``kinds`` (each must be issued in volume)."""
    return {
        f"{kind}_p{round(q * 100)}_us": percentile(tally.latency_us.get(kind, []), q)
        for kind in kinds
    }


def end_to_end(run: dict, setups: list[float]) -> dict:
    out = {"setup_s": median(setups)}
    out.update(percentiles(run["tally"], 0.50, ("insert", "delete")))
    out.update({f"{kind}_pages": pages for kind, pages in run["pages"].items()})
    out["rss_mb"] = run["rss_mb"]
    return out


def untraced_layer_metrics(run: dict) -> dict:
    """Per-layer metrics of the untraced pass: throughput, the read
    p50s, every p99, the scraped counters and the host probe."""
    out = {"throughput_ops_s": run["throughput"]}
    out.update(percentiles(run["tally"], 0.50, ("get", "range", "knn")))
    out.update(percentiles(run["tally"], 0.99))
    out.update(run["counters"])
    out["host.client_cpu_us"] = run["client_cpu_us"]
    return out


# -- workloads ---------------------------------------------------------


def served_inputs(name: str, seed: int) -> tuple[list, list]:
    rng = random.Random(seed)
    taken: set = set()
    if name == "serve_read":
        loaded = uniform_points(rng, SERVED_POINTS, taken)
        extra = uniform_points(rng, SIDE_PER_KIND * 2, taken)
    else:
        # Many clusters, so that how much data the query boxes meet
        # varies little from seed to seed.
        centres = [(rng.random(), rng.random()) for _ in range(40)]
        loaded = clustered_points(rng, SERVED_POINTS, taken, centres)
        extra = clustered_points(rng, 4000, taken, centres)
    return loaded, extra


def run_served(spec: ServedSpec, workdir: str, seed: int, seconds: float, trace: bool) -> dict:
    loaded, extra = served_inputs(spec.name, seed)
    body = json.dumps(
        {"records": [[list(p), i] for i, p in enumerate(loaded)]}
    ).encode()
    probe = list(loaded[0])
    # The client's inputs and model are long-lived: keep the collector
    # from re-scanning them during the timed window.
    gc.collect()
    gc.freeze()

    warm = Server(ROOT, workdir, spec.server_args)
    try:
        warm.wait_ready().close()
    finally:
        warm.stop()

    setups = []
    live = None
    try:
        for k in range(1 if trace else SETUPS):
            if live is not None:
                stop_server(*live)
                live = None
            server, conn, seconds_taken, store = launch_loaded(
                spec, ROOT, workdir, f"u{k}", body, probe
            )
            live = (server, conn, store)
            setups.append(seconds_taken)
        run = report(measure_served(
            spec, server, conn, seed, loaded, extra, seconds, SIDE_PER_KIND, store
        ))
    finally:
        if live is not None:
            stop_server(*live)
    runs = [run]
    if not trace:
        return {"runs": runs, "metrics": end_to_end(run, setups), "setups": setups}

    spans = os.path.join(workdir, "spans.json")
    server, conn, _, store = launch_loaded(
        spec, ROOT, workdir, "traced", body, probe, spans=spans
    )
    try:
        traced = report(measure_served(
            spec, server, conn, seed, loaded, extra, seconds, SIDE_PER_KIND, store
        ))
    finally:
        stop_server(server, conn, store)
    runs.append(traced)
    with open(spans) as fh:
        dump = json.load(fh)
    metrics = untraced_layer_metrics(run)
    metrics.update(layer_metrics(dump, traced["window"], client_latencies(traced["tally"])))
    metrics["trace.overhead_ratio"] = traced["throughput"] / run["throughput"]
    return {"runs": runs, "metrics": metrics}


def client_latencies(tally: Tally) -> list[float]:
    return [v for values in tally.latency_us.values() for v in values]


def served_specs() -> dict[str, ServedSpec]:
    return {
        "serve_read": ServedSpec(
            name="serve_read",
            server_args=["--layout", "columnar"],
            main_mix=Mix(get=0.80, range=0.15, knn=0.05),
            main_clients=1,
            side_kinds=["insert", "delete"],
            side_clients=2,
            side_mix=Mix(insert=1, delete=1),
        ),
        "serve_write": ServedSpec(
            name="serve_write",
            server_args=["--layout", "columnar"],
            main_mix=Mix(insert=0.40, delete=0.40, get=0.20),
            main_clients=2,
            side_kinds=["range", "knn"],
            side_clients=1,
            side_mix=Mix(range=1, knn=1, anchored=True),
            durable=True,
        ),
    }


WORKLOADS = ("serve_read", "serve_write")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no program source at {src}/repro: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    trace = bool(args.trace)
    try:
        calib = calibrate()
        spec = served_specs()[args.workload]
        result = run_served(spec, workdir, args.seed, args.seconds, trace)
        calib += calibrate()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    metrics = result["metrics"]
    print(f"setups: {result.get('setups')}", file=sys.stderr)
    print(f"host calibration loop: median {median(calib):.0f} us of {calib}",
          file=sys.stderr)
    if trace:
        metrics["host.calib_us"] = median(calib)
    names = PER_LAYER if trace else END_TO_END
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["tally"].attempted for r in result["runs"])
    failed = sum(r["tally"].failed for r in result["runs"])
    problems = [p for r in result["runs"] for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": float(metrics[n]), "unit": UNITS[n]} for n in names
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
