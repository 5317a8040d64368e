"""``repro top``: a live cost/health dashboard over a running workload.

:func:`run_top` is the engine behind the ``repro top`` CLI.  It attaches
an :class:`~repro.obs.profile.OpProfiler` (per-kind latency/pages
profiles, slow-op log) and a :class:`~repro.obs.monitor.GuaranteeMonitor`
(live structural gauges, health verdicts) to a tree, drives an operation
stream, and renders a refreshing terminal frame: ops/sec and p50/p99 per
operation kind, buffer hit rate, WAL fsync rate, slow-op captures and
the three paper-guarantee verdicts — the whole observability stack on
one screen.

Timing uses ``time.monotonic`` exclusively (R14: wall clock jumps would
corrupt both the refresh cadence and the ops/sec figures).  Like the
rest of ``repro.obs``, nothing here imports ``repro.core``: the tree and
the operation stream are duck-typed and the CLI owns workload
construction, mirroring :func:`~repro.obs.report.run_doctor`.

The operation stream yields tuples:

- ``("insert", point[, value])`` / ``("delete", point)``
- ``("get", point)`` / ``("range", lows, highs)`` / ``("knn", point, k)``

``KeyNotFoundError`` from reads and deletes is swallowed and surfaces as
the profiler's per-kind error count — on a live dashboard a miss is a
data point, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic
from typing import Any, Callable, Iterable

from repro.errors import KeyNotFoundError, ReproError
from repro.obs.health import HealthReport, HealthThresholds, evaluate
from repro.obs.metrics import MetricsRegistry, TimeSeriesSink, to_prometheus
from repro.obs.monitor import GuaranteeMonitor
from repro.obs.profile import OpProfiler, SlowOpLog
from repro.obs.report import apply_op, format_table

__all__ = ["TopResult", "render_top_frame", "run_top"]

#: Operations driven between clock checks (keeps the refresh cadence
#: responsive without reading the clock on every op).
_BATCH = 64

#: ANSI: clear screen + home, prefixed to every live frame.
_CLEAR = "\x1b[2J\x1b[H"

#: Per-kind display order (any further kinds follow alphabetically).
_KIND_ORDER = ("get", "range", "knn", "insert", "delete", "bulk_load")

_SEVERITY_MARK = {"ok": "PASS", "warning": "WARN", "violation": "FAIL"}


@dataclass
class TopResult:
    """What one ``run_top`` session drove and concluded."""

    ops_applied: int
    frames: int
    elapsed_s: float
    health: HealthReport
    profile: dict[str, Any]
    monitor_state: dict[str, Any]
    last_frame: str = ""
    slow_ops: int = 0
    registry_snapshot: dict[str, Any] = field(default_factory=dict)
    timeseries: dict[str, Any] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        """0 when every guarantee holds (warnings allowed), 1 otherwise."""
        return 0 if self.health.ok else 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "ops_applied": self.ops_applied,
            "frames": self.frames,
            "elapsed_s": self.elapsed_s,
            "exit_code": self.exit_code,
            "health": self.health.to_dict(),
            "profile": self.profile,
            "slow_ops": self.slow_ops,
            "monitor": self.monitor_state,
        }


def _frame_data(
    tree: Any,
    profiler: OpProfiler,
    monitor: GuaranteeMonitor,
    health: HealthReport,
    applied: int,
    elapsed: float,
    interval_rates: dict[str, float],
) -> dict[str, Any]:
    """Everything one rendered frame shows, as plain data."""
    kinds: list[dict[str, Any]] = []
    ordered = [k for k in _KIND_ORDER if k in profiler.profiles]
    ordered += sorted(set(profiler.profiles) - set(_KIND_ORDER))
    for kind in ordered:
        prof = profiler.profiles[kind]
        kinds.append(
            {
                "kind": kind,
                "ops": prof.ops,
                "ops_per_s": interval_rates.get(kind),
                "p50_us": prof.latency_us.quantile(0.5),
                "p99_us": prof.latency_us.quantile(0.99),
                "mean_us": prof.latency_us.mean,
                "pages_mean": prof.pages.mean,
                "errors": prof.errors.value,
            }
        )
    store = tree.store
    rstats = store.stats
    hit_ratio = (
        rstats.hit_ratio if hasattr(rstats, "hit_ratio") else None
    )
    wal = getattr(store, "wal_stats", None)
    if wal is None:
        inner = getattr(store, "store", None)
        wal = getattr(inner, "wal_stats", None) if inner is not None else None
    data: dict[str, Any] = {
        "points": tree.count,
        "height": tree.height,
        "layout": profiler.layout,
        "ops_applied": applied,
        "elapsed_s": elapsed,
        "kinds": kinds,
        "buffer_hit_ratio": hit_ratio,
        "wal_fsyncs": getattr(wal, "fsyncs", None),
        "verdicts": dict(health.verdicts),
        "max_splits_per_op": monitor.max_splits_per_op,
        "slow": (
            {
                "count": profiler.slow_log.count,
                "last": profiler.slow_log.last,
            }
            if profiler.slow_log is not None
            else None
        ),
    }
    return data


def render_top_frame(data: dict[str, Any]) -> str:
    """One dashboard frame as plain text (pure: data in, string out)."""
    lines: list[str] = []
    lines.append(
        f"repro top — layout {data['layout']}, "
        f"{data['points']} points, height {data['height']}"
    )
    elapsed = data["elapsed_s"]
    total_rate = (
        data["ops_applied"] / elapsed if elapsed > 0 else 0.0
    )
    lines.append(
        f"{data['ops_applied']} ops applied in {elapsed:.1f}s "
        f"({total_rate:,.0f} ops/s overall)"
    )
    lines.append("")
    rows = []
    for entry in data["kinds"]:
        rows.append(
            [
                entry["kind"],
                entry["ops"],
                (
                    f"{entry['ops_per_s']:,.0f}"
                    if entry["ops_per_s"] is not None
                    else "-"
                ),
                _fmt_us(entry["p50_us"]),
                _fmt_us(entry["p99_us"]),
                _fmt_us(entry["mean_us"]),
                (
                    f"{entry['pages_mean']:.1f}"
                    if entry["pages_mean"] is not None
                    else "-"
                ),
                entry["errors"],
            ]
        )
    lines.append(
        format_table(
            ["op", "count", "ops/s", "p50 us", "p99 us", "mean us",
             "pages", "errs"],
            rows,
            title="per-kind cost profile",
        )
    )
    lines.append("")
    gauges = []
    if data["buffer_hit_ratio"] is not None:
        gauges.append(f"buffer hit rate {data['buffer_hit_ratio']:.1%}")
    if data["wal_fsyncs"] is not None:
        gauges.append(f"wal fsyncs {data['wal_fsyncs']}")
    gauges.append(f"max splits/op {data['max_splits_per_op']}")
    lines.append("  ".join(gauges))
    slow = data["slow"]
    if slow is not None:
        if slow["last"] is not None:
            last = slow["last"]
            lines.append(
                f"slow ops: {slow['count']} captured "
                f"(last: {last['kind']} {last['latency_us']:.0f}us, "
                f"{last['pages']} pages)"
            )
        else:
            lines.append("slow ops: none captured")
    verdicts = "  ".join(
        f"{name} {_SEVERITY_MARK.get(verdict, verdict.upper())}"
        for name, verdict in sorted(data["verdicts"].items())
    )
    lines.append(f"guarantees: {verdicts}")
    return "\n".join(lines)


def _fmt_us(value: float | None) -> str:
    return f"{value:.1f}" if value is not None else "-"


def run_top(
    tree: Any,
    operations: Iterable[tuple[Any, ...]],
    *,
    refresh: float = 1.0,
    once: bool = False,
    slow_log: SlowOpLog | None = None,
    registry: MetricsRegistry | None = None,
    thresholds: HealthThresholds | None = None,
    prom_out: Any = None,
    metrics_every: int | None = None,
    emit: Callable[[str], None] | None = None,
) -> TopResult:
    """Drive ``operations`` under the full observability stack.

    With ``once`` the whole stream is driven and a single frame is
    rendered at the end (no ANSI control codes — the CI mode);
    otherwise a cleared frame is emitted every ``refresh`` seconds of
    ``time.monotonic`` while the stream lasts.  ``prom_out`` writes the
    Prometheus exposition of the shared registry after every frame
    (atomic single file write — point a scraper's textfile collector at
    it).  ``metrics_every`` samples the registry with a
    :class:`~repro.obs.metrics.TimeSeriesSink` every that many applied
    operations, plus once at the end, into ``TopResult.timeseries`` (the
    columnar record ``repro doctor`` produces).  The tree's tracer is restored
    exactly as found.  Returns a :class:`TopResult`; its ``exit_code``
    follows the doctor convention (0 unless a guarantee is violated).
    """
    if refresh <= 0:
        raise ReproError(f"refresh must be positive, got {refresh}")
    registry = registry if registry is not None else MetricsRegistry()
    profiler = OpProfiler(tree, registry=registry, slow_log=slow_log)
    monitor = GuaranteeMonitor(tree)
    def refresh_gauges(reg: MetricsRegistry) -> None:
        profiler.flush()
        monitor.publish(reg)

    # Ticked per applied op rather than subscribed to the tracer:
    # direct-path gets emit no op_end.
    series = (
        TimeSeriesSink(registry, every=metrics_every, prepare=refresh_gauges)
        if metrics_every is not None
        else None
    )
    applied = 0
    frames = 0
    last_frame_text = ""
    start = monotonic()
    prev_mark = start
    prev_counts: dict[str, int] = {}

    def rates(now: float) -> dict[str, float]:
        nonlocal prev_mark, prev_counts
        interval = now - prev_mark
        out: dict[str, float] = {}
        counts = {
            kind: prof.ops for kind, prof in profiler.profiles.items()
        }
        if interval > 0:
            for kind, count in counts.items():
                out[kind] = (count - prev_counts.get(kind, 0)) / interval
        prev_mark = now
        prev_counts = counts
        return out

    def frame(final: bool) -> str:
        nonlocal frames, last_frame_text
        profiler.flush()
        now = monotonic()
        health = evaluate(monitor, thresholds=thresholds)
        data = _frame_data(
            tree, profiler, monitor, health,
            applied, now - start, rates(now),
        )
        text = render_top_frame(data)
        frames += 1
        last_frame_text = text
        if emit is not None:
            emit(text if (once or final) else _CLEAR + text)
        if prom_out is not None:
            refresh_gauges(registry)
            Path(prom_out).write_text(to_prometheus(registry))
        return text

    profiler.attach()
    monitor.attach()
    try:
        deadline = start + refresh
        batch = 0
        for op in operations:
            try:
                apply_op(tree, op)
            except KeyNotFoundError:  # lint: ignore[R5] -- a miss is a data point on a dashboard; the profiler counts it
                pass
            applied += 1
            if series is not None:
                series.tick()
            batch += 1
            if batch >= _BATCH:
                batch = 0
                if not once and monotonic() >= deadline:
                    frame(final=False)
                    deadline = monotonic() + refresh
        frame(final=True)
        if series is not None:
            series.sample_end()
        health = evaluate(monitor, thresholds=thresholds)
        result = TopResult(
            ops_applied=applied,
            frames=frames,
            elapsed_s=monotonic() - start,
            health=health,
            profile=profiler.to_dict(),
            monitor_state=monitor.to_dict(),
            last_frame=last_frame_text,
            slow_ops=slow_log.count if slow_log is not None else 0,
            registry_snapshot=registry.snapshot(),
            timeseries=series.to_dict() if series is not None else {},
        )
    finally:
        monitor.detach()
        profiler.detach()
    return result
