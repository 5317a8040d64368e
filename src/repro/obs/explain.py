"""Query EXPLAIN: structured reports of what one query actually did.

``BVTree.explain(...)`` answers the questions the aggregate counters
cannot: *which* nodes did this descent visit, *where* did a guard match,
*why* was a block pruned.  Rather than a second instrumentation layer,
EXPLAIN runs the ordinary query code under a temporary capture tracer
(ring sink) and folds the resulting event slice into an
:class:`ExplainReport` — so the report is exactly what a production
trace of the same query would show, and the two can never drift apart.

The capture temporarily replaces the tree's (and, through the shared
wiring, its store's) tracer; the caller's tracer and its subscribers
are restored afterwards even if the query raises.  ``pages_touched`` counts
``page_read`` events, so for an exact match it equals the paper's §6
guarantee of ``height + 1`` page accesses — the property tests assert
this on trees with and without guards.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.errors import KeyNotFoundError
from repro.obs.events import (
    DESCENT_STEP,
    GUARD_HIT,
    PAGE_READ,
    QUERY_PRUNE,
    QUERY_VISIT,
    TraceEvent,
)
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import BVTree

__all__ = [
    "ExplainReport",
    "explain_knn",
    "explain_point",
    "explain_range",
]

#: Capture capacity: queries visit at most a few thousand pages at the
#: scales this repo runs; a truncated capture sets ``truncated``.
_CAPTURE_CAPACITY = 65536


@dataclass
class ExplainReport:
    """What one query did, reconstructed from its trace slice."""

    #: ``"point"``, ``"range"`` or ``"knn"``.
    kind: str
    #: The query as given (JSON-ready).
    query: dict[str, Any]
    #: ``page_read`` events during the query (logical page touches).
    pages_touched: int
    #: Exact-match descent steps, root to leaf (empty for range/knn).
    steps: list[dict[str, Any]] = field(default_factory=list)
    #: Guards that matched the search path and were consulted.
    guards: list[dict[str, Any]] = field(default_factory=list)
    #: Blocks a range/k-NN traversal visited.
    visits: list[dict[str, Any]] = field(default_factory=list)
    #: Blocks pruned, each with the cut-off that fired.
    prunes: list[dict[str, Any]] = field(default_factory=list)
    #: Per-partition-level count of visited entries.
    visited_by_level: dict[int, int] = field(default_factory=dict)
    #: Query-specific outcome (found/value, record count, neighbours).
    result: dict[str, Any] = field(default_factory=dict)
    #: Events captured for this report.
    events: int = 0
    #: True when the capture ring overflowed (report is a suffix).
    truncated: bool = False

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready form of the whole report."""
        return {
            "kind": self.kind,
            "query": self.query,
            "pages_touched": self.pages_touched,
            "steps": self.steps,
            "guards": self.guards,
            "visits": self.visits,
            "prunes": self.prunes,
            "visited_by_level": {
                str(level): count
                for level, count in sorted(self.visited_by_level.items())
            },
            "result": self.result,
            "events": self.events,
            "truncated": self.truncated,
        }

    def render_text(self, max_rows: int = 20) -> str:
        """A human-readable report (the CLI's default output)."""
        lines = [f"EXPLAIN {self.kind} {self._query_text()}"]
        lines.append(
            f"  pages touched: {self.pages_touched}"
            + (" (capture truncated)" if self.truncated else "")
        )
        if self.visited_by_level:
            per_level = ", ".join(
                f"L{level}: {count}"
                for level, count in sorted(
                    self.visited_by_level.items(), reverse=True
                )
            )
            lines.append(f"  visited entries per level: {per_level}")
        if self.steps:
            lines.append("  descent:")
            for step in self.steps:
                lines.append(
                    f"    index level {step['level']}: node p{step['node_page']}"
                    f" -> {step['via']} {_key_text(step)}"
                    f" (guard set: {step['guard_set']})"
                )
        if self.guards:
            lines.append("  guards consulted:")
            for guard in self.guards:
                lines.append(
                    f"    level {guard['level']} guard {_key_text(guard)}"
                    f" in node p{guard['node_page']}"
                )
        if self.prunes:
            lines.append(f"  pruned blocks ({len(self.prunes)}):")
            for prune in self.prunes[:max_rows]:
                lines.append(f"    {_prune_text(prune)}")
            if len(self.prunes) > max_rows:
                lines.append(
                    f"    ... and {len(self.prunes) - max_rows} more"
                )
        if self.result:
            summary = ", ".join(
                f"{key}={value}" for key, value in sorted(self.result.items())
            )
            lines.append(f"  result: {summary}")
        return "\n".join(lines)

    def _query_text(self) -> str:
        return " ".join(
            f"{key}={value}" for key, value in sorted(self.query.items())
        )


def _key_text(fields: dict[str, Any]) -> str:
    bits = fields.get("key", "")
    return f"[{bits}]" if bits else "[ε]"


def _prune_text(prune: dict[str, Any]) -> str:
    base = (
        f"level {prune['level']} block {_key_text(prune)}"
        f" at p{prune.get('page', '?')}"
    )
    if "dim" in prune:
        return f"{base}: bitgrid cut-off fired on dimension {prune['dim']}"
    if "dist" in prune:
        return (
            f"{base}: lower bound {prune['dist']:.6f} beyond current "
            f"radius {prune.get('radius', float('inf')):.6f}"
        )
    return base


@contextmanager
def _capture(tree: "BVTree") -> Iterator[RingSink]:
    """Swap a capture tracer into a tree (and its store), then restore."""
    ring = RingSink(capacity=_CAPTURE_CAPACITY)
    saved = tree.tracer
    tree.tracer = tree.store.tracer = Tracer(ring)
    try:
        yield ring
    finally:
        tree.tracer = tree.store.tracer = saved


def _fold(
    report: ExplainReport, events: list[TraceEvent], dropped: int
) -> ExplainReport:
    """Fold a captured event slice into the report skeleton."""
    report.events = len(events)
    report.truncated = dropped > 0
    for event in events:
        kind = event.kind
        fields = event.fields
        if kind == PAGE_READ:
            report.pages_touched += 1
        elif kind == DESCENT_STEP:
            report.steps.append(dict(fields))
            level = fields.get("chosen_level")
            if level is not None:
                report.visited_by_level[level] = (
                    report.visited_by_level.get(level, 0) + 1
                )
        elif kind == GUARD_HIT:
            report.guards.append(dict(fields))
        elif kind == QUERY_VISIT:
            report.visits.append(dict(fields))
            level = fields.get("level")
            if level is not None:
                report.visited_by_level[level] = (
                    report.visited_by_level.get(level, 0) + 1
                )
        elif kind == QUERY_PRUNE:
            report.prunes.append(dict(fields))
    return report


def explain_point(tree: "BVTree", point: Sequence[float]) -> ExplainReport:
    """EXPLAIN an exact-match lookup at ``point``."""
    pt = tuple(float(x) for x in point)
    report = ExplainReport(
        kind="point", query={"point": list(pt)}, pages_touched=0
    )
    with _capture(tree) as ring:
        try:
            value = tree.get(pt)
            report.result = {"found": True, "value": repr(value)}
        except KeyNotFoundError:
            report.result = {"found": False}
    return _fold(report, ring.events(), ring.dropped)


def explain_range(
    tree: "BVTree", lows: Sequence[float], highs: Sequence[float]
) -> ExplainReport:
    """EXPLAIN a range query over the half-open box ``[lows, highs)``."""
    report = ExplainReport(
        kind="range",
        query={"lows": [float(x) for x in lows], "highs": [float(x) for x in highs]},
        pages_touched=0,
    )
    with _capture(tree) as ring:
        result = tree.range_query(lows, highs)
        report.result = {
            "records": len(result),
            "pages_visited": result.pages_visited,
            "data_pages_visited": result.data_pages_visited,
        }
    return _fold(report, ring.events(), ring.dropped)


def explain_knn(
    tree: "BVTree", point: Sequence[float], k: int = 1
) -> ExplainReport:
    """EXPLAIN a k-nearest-neighbour search around ``point``."""
    pt = tuple(float(x) for x in point)
    report = ExplainReport(
        kind="knn", query={"point": list(pt), "k": k}, pages_touched=0
    )
    with _capture(tree) as ring:
        result = tree.nearest(pt, k=k)
        report.result = {
            "neighbours": len(result),
            "pages_visited": result.pages_visited,
            "max_distance": (
                round(result.neighbours[-1].distance, 6)
                if result.neighbours
                else None
            ),
        }
    return _fold(report, ring.events(), ring.dropped)
