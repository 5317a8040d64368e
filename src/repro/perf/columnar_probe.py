"""The columnar probe: object-vs-columnar lanes plus the layout oracle.

Runs once per ``repro perf`` suite.  It builds two trees over the *same*
record population — one per page layout — and measures the hot paths the
columnar layout exists for (descent, range scan, k-NN) plus the update
paths it must not regress (insert, delete).  Alongside the timings it
runs the **differential oracle**: every exact-match answer, every range
result set, every k-NN distance list and every page-visit count must be
identical across layouts.  A divergence is a correctness bug, not a perf
artefact, so ``repro perf`` (and the CI perf-smoke lanes) fail on it.

The figures land in the ``columnar`` block of ``BENCH_<suite>.json``:

- ``lanes.{object,columnar}`` — best-of per-op microseconds per path;
- ``speedups`` — object-best over columnar-best (>1 means columnar wins);
- ``oracle`` — per-path equality verdicts and an overall ``equal`` flag.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.core.columnar import LAYOUTS
from repro.core.tree import BVTree
from repro.perf.registry import Probe, Scale, register_probe
from repro.perf.scenarios import SuiteContext, build_context
from repro.perf.timer import measure

__all__ = ["columnar_snapshot"]

#: Best-of repeats for the probe's timed loops (capped below the suite's
#: repeats: the probe times five paths over two lanes, and the oracle
#: part needs one pass only).
PROBE_REPEATS = 3


def _measure_lane(
    scale: Scale, ctx: SuiteContext, layout: str, repeats: int
) -> tuple[dict[str, float], dict[str, Any]]:
    """``(per-op microseconds, oracle outputs)`` for one layout lane."""
    space, records, rects = ctx.space, ctx.records, ctx.rects
    query_points, knn_points = ctx.query_points, ctx.knn_points
    # Update paths: a fresh tree per repeat, inserts timed, then the
    # deletes timed on the trees those inserts produced (so the delete
    # loop exercises merges on a realistically fragmented tree).
    unique = list({space.point_path(p): p for p, _ in records}.values())
    built: list[BVTree] = []

    def insert_all(tree: BVTree) -> None:
        for point, value in records:
            tree.insert(point, value, replace=True)
        built.append(tree)

    def delete_all(tree: BVTree) -> None:
        for point in unique:
            tree.delete(point)

    def lane_tree() -> BVTree:
        return BVTree(
            space,
            data_capacity=scale.data_capacity,
            fanout=scale.fanout,
            layout=layout,
        )

    def best(run: Any, setup: Any = None) -> float:
        return measure(run, setup=setup, repeats=repeats, warmup=0).best

    insert_best = best(insert_all, lane_tree)
    delete_best = best(delete_all, built.pop)

    # Query paths over one bulk-loaded tree (the layout under test).
    tree = lane_tree()
    tree.bulk_load(records, replace=True)
    get = tree.get
    nearest = tree.nearest
    range_query = tree.range_query

    exact_best = best(lambda _: [get(point) for point in query_points])
    range_best = best(
        lambda _: [range_query(r.lows, r.highs) for r in rects]
    )
    knn_best = best(
        lambda _: [nearest(point, k=scale.k) for point in knn_points]
    )

    # Oracle pass: one untimed sweep collecting comparable outputs.
    exact_out = [get(point) for point in query_points]
    range_out = []
    for rect in rects:
        result = range_query(rect.lows, rect.highs)
        range_out.append((result.pages_visited, sorted(result.records)))
    knn_out = []
    for point in knn_points:
        result = nearest(point, k=scale.k)
        knn_out.append(
            (result.pages_visited, [n.distance for n in result.neighbours])
        )

    timings = {
        "insert_us_per_op": insert_best / len(records) * 1e6,
        "delete_us_per_op": delete_best / len(unique) * 1e6,
        "exact_us_per_op": exact_best / len(query_points) * 1e6,
        "range_us_per_query": range_best / len(rects) * 1e6,
        "knn_us_per_query": knn_best / len(knn_points) * 1e6,
    }
    oracle = {"exact": exact_out, "range": range_out, "knn": knn_out}
    return timings, oracle


def columnar_snapshot(scale: Scale) -> dict[str, Any]:
    """The ``columnar`` block of a ``BENCH_<suite>.json`` snapshot."""
    # The fixtures come from the shared scenario builder at an
    # object-layout copy of the scale, so both lanes see the exact same
    # records and query sets regardless of what layout the suite ran on.
    context = build_context(replace(scale, layout="object"))
    repeats = min(scale.repeats, PROBE_REPEATS)

    lanes: dict[str, dict[str, float]] = {}
    oracles: dict[str, dict[str, Any]] = {}
    for layout in LAYOUTS:
        lanes[layout], oracles[layout] = _measure_lane(
            scale, context, layout, repeats
        )

    obj, col = oracles["object"], oracles["columnar"]
    oracle = {
        "exact_equal": obj["exact"] == col["exact"],
        "range_equal": obj["range"] == col["range"],
        "knn_equal": obj["knn"] == col["knn"],
    }
    oracle["equal"] = all(oracle.values())

    o, c = lanes["object"], lanes["columnar"]
    speedups = {
        "exact_match": o["exact_us_per_op"] / c["exact_us_per_op"],
        "range": o["range_us_per_query"] / c["range_us_per_query"],
        "knn": o["knn_us_per_query"] / c["knn_us_per_query"],
        # Update-path ratios: columnar over object, the <= 1.2x budget.
        "insert_ratio": c["insert_us_per_op"] / o["insert_us_per_op"],
        "delete_ratio": c["delete_us_per_op"] / o["delete_us_per_op"],
    }
    return {
        "probe_points": scale.n_points,
        "repeats": repeats,
        "lanes": lanes,
        "speedups": speedups,
        "oracle": oracle,
    }


def _rows(columnar: dict[str, Any]) -> list[list[Any]]:
    obj, col = columnar["lanes"]["object"], columnar["lanes"]["columnar"]
    speedups = columnar["speedups"]
    rows: list[list[Any]] = [
        [label, f"object {obj[key]:.2f} / columnar {col[key]:.2f} {unit}"]
        for key, label, unit in (
            ("exact_us_per_op", "exact match", "us/op"),
            ("range_us_per_query", "range query", "us/query"),
            ("knn_us_per_query", "k-NN query", "us/query"),
            ("insert_us_per_op", "insert", "us/op"),
            ("delete_us_per_op", "delete", "us/op"),
        )
    ]
    for key in ("exact_match", "range", "knn"):
        rows.append([f"speedup: {key}", f"{speedups[key]:.2f}x"])
    for key in ("insert_ratio", "delete_ratio"):
        rows.append([
            f"update cost: {key}",
            f"{speedups[key]:.2f}x (budget 1.20x)",
        ])
    rows.append([
        "layout oracle",
        "EQUAL" if columnar["oracle"]["equal"] else "DIVERGED",
    ])
    return rows


def _failures(columnar: dict[str, Any]) -> list[str]:
    """A layout-oracle divergence is a correctness bug: fail the run."""
    oracle = columnar.get("oracle", {})
    if not oracle or oracle.get("equal"):
        return []
    diverged = sorted(
        name for name, equal in oracle.items() if name != "equal" and not equal
    )
    return [
        "columnar layout oracle DIVERGED from the object layout on: "
        + ", ".join(diverged)
    ]


register_probe(Probe(
    name="columnar",
    label="columnar probe (layout lanes + oracle)",
    run=columnar_snapshot,
    title=lambda columnar: (
        f"columnar probe (n={columnar.get('probe_points')}, "
        f"object vs columnar lanes)"
    ),
    rows=_rows,
    failures=_failures,
))
