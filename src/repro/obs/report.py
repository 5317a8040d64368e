"""The doctor: run a workload under the monitor and render its health.

:func:`run_doctor` is the engine behind ``repro doctor`` (and the perf
harness's ``health`` block): it attaches a
:class:`~repro.obs.monitor.GuaranteeMonitor` and a
:class:`~repro.obs.TimeSeriesSink` to a tree, drives an operation
stream, then audits the incremental gauges against a full sweep and
scores the three paper guarantees (:mod:`repro.obs.health`).  The result
carries everything the CLI needs — verdicts, per-level table rows, the
columnar time series — plus the process exit code:

========  ==========================================================
exit      meaning
========  ==========================================================
``0``     all guarantees hold (warnings allowed) and the audit is clean
``1``     at least one guarantee VIOLATION
``2``     audit drift — the incremental gauges disagree with the sweep
          (a monitor bug or an unobserved mutation path; always worth a
          report regardless of what the gauges claim)
========  ==========================================================

Like the rest of ``repro.obs`` this module never imports ``repro.core``:
the tree and the operation stream are duck-typed, and the CLI owns
workload construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import ReproError
from repro.obs.health import HealthReport, HealthThresholds, evaluate
from repro.obs.metrics import MetricsRegistry, TimeSeriesSink
from repro.obs.monitor import AuditReport, GuaranteeMonitor

__all__ = [
    "EXIT_DRIFT",
    "EXIT_OK",
    "EXIT_VIOLATION",
    "DoctorResult",
    "apply_op",
    "format_table",
    "render_doctor_text",
    "run_doctor",
]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_DRIFT = 2


@dataclass
class DoctorResult:
    """Everything one doctor run learned, JSON-ready via :meth:`to_dict`."""

    n_points: int
    ops_applied: int
    monitor_state: dict[str, Any]
    audit: AuditReport
    health: HealthReport
    timeseries: dict[str, Any] = field(default_factory=dict)
    workload: str | None = None

    @property
    def exit_code(self) -> int:
        if not self.audit.clean:
            return EXIT_DRIFT
        if not self.health.ok:
            return EXIT_VIOLATION
        return EXIT_OK

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "n_points": self.n_points,
            "ops_applied": self.ops_applied,
            "exit_code": self.exit_code,
            "audit": {"clean": self.audit.clean, "drift": self.audit.drift},
            "health": self.health.to_dict(),
            "monitor": self.monitor_state,
        }
        if self.workload is not None:
            out["workload"] = self.workload
        if self.timeseries:
            out["timeseries"] = self.timeseries
        return out


def apply_op(tree: Any, op: tuple[Any, ...]) -> None:
    """Apply one operation tuple to a duck-typed tree.

    The one op applier of ``repro doctor`` and ``repro top``: ``op`` is
    ``("insert", point[, value])``, ``("delete", point)``,
    ``("get", point)``, ``("range", lows, highs)`` or
    ``("knn", point[, k])``.  Inserts replace an existing record.
    """
    verb = op[0]
    if verb == "insert":
        tree.insert(op[1], op[2] if len(op) > 2 else None, replace=True)
    elif verb == "delete":
        tree.delete(op[1])
    elif verb == "get":
        tree.get(op[1])
    elif verb == "range":
        tree.range_query(op[1], op[2])
    elif verb == "knn":
        tree.nearest(op[1], k=op[2] if len(op) > 2 else 1)
    else:
        raise ReproError(
            f"operation must be insert/delete/get/range/knn, got {verb!r}"
        )


def run_doctor(
    tree: Any,
    operations: Iterable[tuple[Any, ...]] = (),
    *,
    sample_every: int = 256,
    max_samples: int = 512,
    thresholds: HealthThresholds | None = None,
    workload: str | None = None,
) -> DoctorResult:
    """Drive ``operations`` under the monitor and score the guarantees.

    ``operations`` yields the tuples :func:`apply_op` takes (the doctor's
    own streams are inserts and deletes); an empty stream just examines
    the tree as it stands (the "examine a snapshot" mode).  The monitor and
    the time series subscribe to the tree's tracer for the duration; its
    other subscribers are left exactly as found.
    """
    monitor = GuaranteeMonitor(tree)
    registry = MetricsRegistry()
    series = TimeSeriesSink(
        registry,
        every=sample_every,
        max_samples=max_samples,
        prepare=monitor.publish,
    )
    applied = 0
    monitor.attach()
    tree.tracer.subscribe(series)
    try:
        for op in operations:
            apply_op(tree, op)
            applied += 1
        series.sample_end()
        audit = monitor.audit()
        health = evaluate(monitor, thresholds=thresholds)
        state = monitor.to_dict()
    finally:
        tree.tracer.unsubscribe(series)
        monitor.detach()
    return DoctorResult(
        n_points=tree.count,
        ops_applied=applied,
        monitor_state=state,
        audit=audit,
        health=health,
        timeseries=series.to_dict(),
        workload=workload,
    )


_SEVERITY_MARK = {"ok": "PASS", "warning": "WARN", "violation": "FAIL"}


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned fixed-width table (floats to 3 places).

    The one table renderer: the doctor and ``repro top`` frames here,
    ``repro perf`` and the analysis commands through
    :mod:`repro.bench.reporting`.  It lives in ``repro.obs`` because obs
    sits below core in the dependency order.
    """
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in cells), 1)
        if cells
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_doctor_text(result: DoctorResult) -> str:
    """The doctor's terminal report: per-level table + verdicts."""
    lines: list[str] = []
    title = "repro doctor"
    if result.workload:
        title += f" — workload {result.workload}"
    lines.append(title)
    lines.append(
        f"{result.n_points} points, height "
        f"{result.monitor_state['height']}, "
        f"{result.ops_applied} operations applied"
    )
    lines.append("")

    state = result.monitor_state
    occ = state["occupancy_by_level"]
    guards = state["guards_by_level"]
    per_level_minmax: dict[str, tuple[int, float]] = {}
    for level, bucket in occ.items():
        sizes = {int(size): n for size, n in bucket.items()}
        pages = sum(sizes.values())
        mean = sum(size * n for size, n in sizes.items()) / pages
        per_level_minmax[level] = (min(sizes), mean)
    level_findings: dict[str, str] = {}
    for finding in result.health.findings:
        if finding.guarantee == "occupancy" and finding.level is not None:
            level_findings[str(finding.level)] = _SEVERITY_MARK[
                finding.severity
            ]
    rows = []
    for level in sorted(occ, key=int):
        minimum, mean = per_level_minmax[level]
        rows.append(
            [
                level,
                state["pages_by_level"][level],
                minimum,
                f"{mean:.1f}",
                guards.get(level, 0),
                level_findings.get(level, "-"),
            ]
        )
    lines.append(
        format_table(
            ["level", "pages", "min occ", "mean occ", "guards", "verdict"],
            rows,
            title="per-level health",
        )
    )
    lines.append("")

    lines.append("guarantees")
    for finding in result.health.findings:
        if finding.guarantee == "occupancy" and finding.level is not None:
            continue  # summarised in the table above
        lines.append(
            f"  [{_SEVERITY_MARK[finding.severity]}] "
            f"{finding.guarantee}: {finding.message}"
        )
    occupancy_verdict = result.health.verdicts["occupancy"]
    lines.append(
        f"  [{_SEVERITY_MARK[occupancy_verdict]}] occupancy: "
        "per-level minima vs policy (table above)"
    )

    lines.append("")
    if result.audit.clean:
        lines.append("audit: incremental gauges match the full sweep")
    else:
        lines.append("audit: DRIFT between incremental gauges and sweep:")
        for line in result.audit.drift:
            lines.append(f"  {line}")

    for finding in result.health.violations + result.health.warnings:
        if finding.pages:
            lines.append(
                f"offending pages ({finding.guarantee}, level "
                f"{finding.level}): {list(finding.pages)}"
            )
    lines.append("")
    lines.append(f"exit code: {result.exit_code}")
    return "\n".join(lines)
