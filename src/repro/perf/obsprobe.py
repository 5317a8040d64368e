"""The observability probe: metrics snapshot + tracing-overhead figure.

Runs once per ``repro perf`` suite, separately from the timed cases, and
fills the ``observability`` block of the ``BENCH_<suite>.json`` snapshot
with two things the dashboards and the acceptance gate read:

- a :class:`~repro.obs.MetricsRegistry` snapshot taken by replaying a
  bounded traced workload through a :class:`~repro.obs.MetricsSink`
  (per-op nodes-visited and guard-check histograms, split fan-out,
  buffer hit-ratio over time);
- ``overhead`` — the cost of the exact-match path with the tracer
  disabled (no subscribers, the shipping default; the number
  ``docs/OBSERVABILITY.md`` quotes) and with a live ring-sink capture,
  timed as a pair by :func:`repro.perf.timer.paired_lookups`.

The probe workload is bounded (``PROBE_POINTS`` records) so the perf run
stays fast at every scale; its population is drawn from the same seeded
generator as the timed cases.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.obs import (
    GuaranteeMonitor,
    MetricsRegistry,
    MetricsSink,
    RingSink,
    TimeSeriesSink,
    run_doctor,
)
from repro.perf.registry import Probe, Scale, register_probe
from repro.perf.timer import LOOKUP_CHUNK, LOOKUP_ROUNDS, paired_lookups
from repro.storage import BufferPool, default_store
from repro.workloads import churn, distinct_paths, nested_hotspot, uniform

__all__ = ["health_snapshot", "observability_snapshot", "probe_tree"]

#: Record-count cap for the probe workload.
PROBE_POINTS = 2000
#: Exact-match lookups in the traced metrics workload.
PROBE_LOOKUPS = 500


def probe_tree(
    scale: Scale, cap: int = PROBE_POINTS
) -> tuple[BVTree, list[tuple[float, ...]]]:
    """An empty buffered tree at the scale's layout plus up to ``cap``
    uniform points."""
    space = DataSpace.unit(scale.dims, resolution=scale.resolution)
    n = min(scale.n_points, cap)
    points = [tuple(p) for p in uniform(n, scale.dims, seed=scale.seed)]
    pool = BufferPool(default_store(), capacity=256)
    tree = BVTree(
        space,
        data_capacity=scale.data_capacity,
        fanout=scale.fanout,
        store=pool,
        layout=scale.layout,
    )
    return tree, points


def _traced_metrics(scale: Scale) -> dict[str, Any]:
    """Replay a traced workload through a MetricsSink; return its snapshot."""
    tree, points = probe_tree(scale)
    sink = MetricsSink()
    tree.tracer.subscribe(sink)
    for i, point in enumerate(points):
        tree.insert(point, i, replace=True)
    for point in points[:PROBE_LOOKUPS]:
        tree.get(point)
    lo = tuple(0.25 for _ in range(scale.dims))
    hi = tuple(0.75 for _ in range(scale.dims))
    tree.range_query(lo, hi)
    for point in points[: min(len(points), 10)]:
        tree.nearest(point, k=scale.k)
    tree.tracer.unsubscribe(sink)
    return sink.snapshot()


def _overhead(scale: Scale) -> dict[str, Any]:
    """The exact-match loop timed with the tracer disabled vs a ring sink.

    ``disabled_us_per_op`` (no subscribers, the shipping default) is the
    headline; ``ring_overhead_ratio`` shows what a live in-memory capture
    costs relative to it.
    """
    tree, points = probe_tree(scale)
    tree.bulk_load([(p, i) for i, p in enumerate(points)], replace=True)
    ring = RingSink(capacity=4096)

    @contextmanager
    def ring_attached() -> Iterator[None]:
        tree.tracer.subscribe(ring)
        try:
            yield
        finally:
            tree.tracer.unsubscribe(ring)

    timing = paired_lookups(
        tree.get, points, {"disabled": nullcontext, "ring": ring_attached}
    )
    # Publish the ring's occupancy gauges so the snapshot records
    # whether the capture truncated (trace.ring.dropped > 0 means the
    # overhead figure came from a partial window).
    ring_registry = MetricsRegistry()
    ring.publish(ring_registry)
    return {
        "lookups": LOOKUP_CHUNK * LOOKUP_ROUNDS,
        "disabled_us_per_op": timing.median("disabled") * 1e6,
        "ring_us_per_op": timing.median("ring") * 1e6,
        "ring_overhead_ratio": timing.ratio("ring", "disabled"),
        "ring_state": {
            name: value["value"]
            for name, value in ring_registry.snapshot().items()
        },
    }


def observability_snapshot(scale: Scale) -> dict[str, Any]:
    """The ``observability`` block of a ``BENCH_<suite>.json`` snapshot."""
    return {
        "probe_points": min(scale.n_points, PROBE_POINTS),
        "metrics": _traced_metrics(scale),
        "overhead": _overhead(scale),
    }


#: Deletion fraction of the health probe's churn stream.
HEALTH_CHURN = 0.2
#: Retained samples in the health block's time series (keeps the
#: committed BENCH file compact; the stride auto-doubles past this).
HEALTH_SERIES_SAMPLES = 128


def _monitor_overhead(scale: Scale) -> dict[str, Any]:
    """Exact-match cost with and without the monitor + time series.

    The acceptance gate: a guarantee monitor (an update-path tracer
    subscriber) plus a sampling :class:`~repro.obs.TimeSeriesSink` must
    hold the read path within 3% of the uninstrumented loop.  Reads emit
    nothing to them — the guarded sites check ``tracer.enabled`` — so the
    measured cost is the two boolean attribute checks per get.
    """
    tree, points = probe_tree(scale)
    tree.bulk_load([(p, i) for i, p in enumerate(points)], replace=True)
    monitor = GuaranteeMonitor(tree)
    series = TimeSeriesSink(
        MetricsRegistry(), every=64, prepare=monitor.publish
    )

    @contextmanager
    def monitored() -> Iterator[None]:
        with monitor:
            tree.tracer.subscribe(series)
            try:
                yield
            finally:
                tree.tracer.unsubscribe(series)

    timing = paired_lookups(
        tree.get, points, {"bare": nullcontext, "monitored": monitored}
    )
    return {
        "lookups": LOOKUP_CHUNK * LOOKUP_ROUNDS,
        "uninstrumented_us_per_op": timing.median("bare") * 1e6,
        "monitored_us_per_op": timing.median("monitored") * 1e6,
        "monitor_overhead_ratio": timing.ratio("monitored", "bare"),
    }


def health_snapshot(scale: Scale) -> dict[str, Any]:
    """The ``health`` block of a ``BENCH_<suite>.json`` snapshot.

    Runs the doctor over an adversarial churn workload at the *full*
    scale population (nested hotspot inserts with ``HEALTH_CHURN``
    interleaved deletions — the distribution the paper's guarantees are
    hardest on), audits the incremental gauges against the sweep, and
    measures the monitor's read-path overhead.  ``ok`` requires all
    three guarantee verdicts to pass *and* a clean audit, which is what
    ``repro perf --baseline`` and ``repro doctor --bench`` gate on.
    """
    space = DataSpace.unit(scale.dims, resolution=scale.resolution)
    tree = BVTree(
        space,
        data_capacity=scale.data_capacity,
        fanout=scale.fanout,
        layout=scale.layout,
    )
    # Churn tracks live points by float tuple, the tree by the leading
    # resolution bits: dense hotspot populations collide in those bits
    # (replace=True folds them into one record), so path-deduplicate
    # first or a later delete would target an already-replaced record.
    points = distinct_paths(
        space, nested_hotspot(scale.n_points, scale.dims, seed=scale.seed)
    )
    operations = churn(
        points,
        delete_fraction=HEALTH_CHURN,
        seed=scale.seed,
    )
    result = run_doctor(
        tree,
        operations,
        sample_every=max(64, scale.n_points // HEALTH_SERIES_SAMPLES),
        max_samples=HEALTH_SERIES_SAMPLES,
        workload="nested_hotspot+churn",
    )
    state = result.monitor_state
    return {
        "workload": result.workload,
        "n_points": result.n_points,
        "ops_applied": result.ops_applied,
        "ok": result.exit_code == 0,
        "audit_clean": result.audit.clean,
        "audit_drift": result.audit.drift,
        "verdicts": result.health.verdicts,
        "findings": [
            f.to_dict()
            for f in result.health.findings
            if f.severity != "ok"
        ],
        "monitor": {
            "height": state["height"],
            "max_height_seen": state["max_height_seen"],
            "max_splits_per_op": state["max_splits_per_op"],
            "pages_by_level": state["pages_by_level"],
            "guards_by_level": state["guards_by_level"],
            "event_counts": state["event_counts"],
        },
        "overhead": _monitor_overhead(scale),
        "timeseries": result.timeseries,
    }


def _observability_rows(obs: dict[str, Any]) -> list[list[Any]]:
    overhead, metrics = obs["overhead"], obs["metrics"]
    rows: list[list[Any]] = [
        [
            "tracer disabled (no subscribers)",
            f"{overhead['disabled_us_per_op']:.2f} us/get",
        ],
        ["tracer + ring sink", f"{overhead['ring_us_per_op']:.2f} us/get"],
        ["ring-sink overhead", f"{overhead['ring_overhead_ratio']:.2f}x"],
    ]
    for name in (
        "descent.nodes_visited",
        "descent.guard_checks",
        "split.fanout",
    ):
        entry = metrics.get(name)
        if entry and entry.get("count"):
            rows.append([
                name,
                f"mean {entry['mean']:.2f} over {entry['count']} ops",
            ])
    ratio_entry = metrics.get("buffer.hit_ratio")
    if ratio_entry is not None:
        rows.append(["buffer.hit_ratio", f"{ratio_entry['value']:.3f}"])
    return rows


register_probe(Probe(
    name="observability",
    label="observability probe",
    run=observability_snapshot,
    title=lambda obs: f"observability probe (n={obs.get('probe_points')})",
    rows=_observability_rows,
))


#: Severity order for regression detection (worse = higher).
_SEVERITY_RANK = {"ok": 0, "warning": 1, "violation": 2}

#: The gate on ``overhead.monitor_overhead_ratio``.
MONITOR_OVERHEAD_BUDGET = 1.03


def _health_rows(health: dict[str, Any]) -> list[list[Any]]:
    rows: list[list[Any]] = [
        [f"guarantee: {name}", verdict.upper()]
        for name, verdict in health["verdicts"].items()
    ]
    monitor = health["monitor"]
    rows += [
        [
            "audit (incremental vs sweep)",
            "clean" if health["audit_clean"] else "DRIFT",
        ],
        ["height", monitor["height"]],
        ["max splits per op", monitor["max_splits_per_op"]],
        [
            "monitor overhead",
            f"{health['overhead']['monitor_overhead_ratio']:.3f}x",
        ],
    ]
    return rows


def _health_regressions(
    base: dict[str, Any], cur: dict[str, Any]
) -> list[str]:
    """A guarantee verdict that got worse, a newly drifting audit, or a
    monitor overhead ratio newly above the 3% budget."""
    out: list[str] = []
    base_verdicts = base.get("verdicts", {})
    for name, verdict in cur.get("verdicts", {}).items():
        was = base_verdicts.get(name, "ok")
        if _SEVERITY_RANK.get(verdict, 0) > _SEVERITY_RANK.get(was, 0):
            out.append(f"{name}: {was} -> {verdict}")
    if base.get("audit_clean", True) and not cur.get("audit_clean", True):
        out.append("audit: clean -> drift (incremental gauges diverged)")
    base_ratio = (base.get("overhead") or {}).get("monitor_overhead_ratio")
    cur_ratio = (cur.get("overhead") or {}).get("monitor_overhead_ratio")
    if (
        cur_ratio is not None
        and cur_ratio > MONITOR_OVERHEAD_BUDGET
        and (base_ratio is None or base_ratio <= MONITOR_OVERHEAD_BUDGET)
    ):
        out.append(
            f"monitor overhead: {cur_ratio:.3f}x exceeds the 3% budget"
        )
    return out


register_probe(Probe(
    name="health",
    label="health probe (guarantee doctor)",
    run=health_snapshot,
    title=lambda health: (
        f"guarantee doctor ({health.get('workload')}, "
        f"n={health.get('n_points')}, "
        f"{health.get('ops_applied')} ops)"
    ),
    rows=_health_rows,
    regressions=_health_regressions,
))
