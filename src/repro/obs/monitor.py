"""The guarantee monitor: incremental structural gauges from the trace.

A :class:`GuaranteeMonitor` watches a BV-tree's structure *live* — per
level occupancy histograms, guard counts, pages per level, height, and
split work per operation — without ever walking the tree.  It
subscribes to the update-path event kinds of the tree's tracer (see
:mod:`repro.obs.tracer`): every mutation the tree performs flows through
its store's ``allocate``/``write``/``free`` choke point and emits a
``page_alloc``/``page_write``/``page_free`` event, and the monitor folds
each into O(1) dictionary updates.  Exact-match reads stay on the
untraced fast path — a monitored tree's gets cost one extra boolean
check, nothing more (the perf probe holds the overhead under 3%).

The incremental state is *exact*, not approximate: :meth:`audit`
cross-checks it against a fresh :func:`repro.core.stats.collect` sweep
and the two must agree field-for-field (property-tested across random
insert/delete/bulk mixes).  Exactness is what lets the health evaluator
(:mod:`repro.obs.health`) score the paper's guarantees from the gauges
alone, with the sweep demoted to an audit oracle.

Layering: ``repro.obs`` sits below ``repro.core``, so this module never
imports core types.  It duck-types page content — an object with an
``index_level`` attribute and ``entries`` is an index node, anything
else with ``len()`` is a data page — and reads pages through the store's
uncounted ``peek`` so monitoring never perturbs the I/O accounting it
observes.

An aborted transaction puts its pages back without emitting events, and
it can abort after its ops' ``op_end`` (an exception raised later in an
enclosing ``tree.transaction``).  So the monitor remembers the page
object it folded for every page a page event named, and re-derives any
whose store content is no longer that object (or is gone): at the first
``op_begin`` of the next transaction, when it also forgets them, and in
:meth:`GuaranteeMonitor.audit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.errors import PageNotFoundError
from repro.obs.events import (
    DATA_SPLIT,
    DEMOTION,
    INDEX_SPLIT,
    MERGE,
    OP_BEGIN,
    OP_END,
    PAGE_ALLOC,
    PAGE_FREE,
    PAGE_WRITE,
    PROMOTION,
    REDISTRIBUTE,
    STRUCTURAL_KINDS,
    TraceEvent,
)

__all__ = ["AuditReport", "GuaranteeMonitor", "MonitoredTree"]


class MonitoredTree(Protocol):
    """What the monitor needs from a tree (duck-typed, no core import)."""

    count: int
    height: int
    root_page: int

    @property
    def tracer(self) -> Any: ...

    @property
    def store(self) -> Any: ...

    def tree_stats(self) -> Any: ...


@dataclass
class AuditReport:
    """The outcome of cross-checking incremental state against a sweep.

    ``drift`` lists one human-readable line per disagreement; an empty
    list means the monitor's O(1) bookkeeping reproduced the full-sweep
    statistics exactly.
    """

    clean: bool
    drift: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.clean


def _is_index(content: Any) -> bool:
    return getattr(content, "index_level", 0) > 0


class GuaranteeMonitor:
    """Incrementally tracked structural gauges for one BV-tree.

    Attach with :meth:`attach` (which seeds the state with a one-time
    sweep of the current pages and subscribes the monitor to the tree's
    tracer), detach with :meth:`detach`.  While attached, the gauges below
    are live after every operation:

    - ``occupancy(level)`` — histogram ``{population: page count}`` of
      every node at ``level`` (0 = data pages), root included;
    - ``pages_by_level`` / ``guards_by_level`` / ``points`` / ``height``;
    - ``max_splits_per_op`` — the worst split chain any single
      operation has caused (the no-cascade guarantee's witness);
    - ``max_height_seen`` — the high-water mark of the tree height.

    The monitor never calls counted store reads: page content is
    examined through ``store.peek`` only, and only for pages named in
    structural events.
    """

    #: Subscriber declaration: the update-path kinds :meth:`emit` folds.
    kinds = STRUCTURAL_KINDS | {
        PAGE_WRITE, PAGE_ALLOC, PAGE_FREE, OP_BEGIN, OP_END
    }

    def __init__(self, tree: MonitoredTree):
        self.tree = tree
        self.attached = False
        #: page id -> (level, population) for every live page.
        self._pages: dict[int, tuple[int, int]] = {}
        #: level -> {population: page count} (exact histogram).
        self._occ: dict[int, dict[int, int]] = {}
        #: page id -> {guard level: count} for index pages with guards.
        self._page_guards: dict[int, dict[int, int]] = {}
        #: guard entry level -> count, aggregated over all index pages.
        self._guards: dict[int, int] = {}
        #: structural event kind -> count since attach.
        self.event_counts: dict[str, int] = {}
        self.max_height_seen = 0
        self.max_splits_per_op = 0
        #: Splits caused by the currently open operation span(s).
        self._op_splits: dict[int, int] = {}
        #: Open bulk-load spans (exempt from the split-chain gauge).
        self._bulk_ops: set[int] = set()
        #: page id -> the content folded for it (``None``: freed) for
        #: every page named since the last transaction closed.
        self._named: dict[int, Any] = {}
        self.ops_seen = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> "GuaranteeMonitor":
        """Seed state from the live pages and subscribe to the tracer."""
        if self.attached:
            return self
        self._seed()
        self.tree.tracer.subscribe(self)
        self.attached = True
        return self

    def detach(self) -> None:
        """Unsubscribe (the gauges freeze at their current values)."""
        if self.attached:
            self.tree.tracer.unsubscribe(self)
            self.attached = False
            self._settle()
            self._named.clear()

    def __enter__(self) -> "GuaranteeMonitor":
        return self.attach()

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    def _seed(self) -> None:
        """One-time sweep of the live pages (uncounted peeks)."""
        self._pages.clear()
        self._occ.clear()
        self._page_guards.clear()
        self._guards.clear()
        self._named.clear()
        store = self.tree.store
        for page_id in store.page_ids():
            self._track(page_id, store.peek(page_id))
        self.max_height_seen = self.tree.height

    # ------------------------------------------------------------------
    # TraceSink interface (subscriber)
    # ------------------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        """Fold one trace event into the incremental state."""
        kind = event.kind
        if kind == PAGE_WRITE:
            page = event.fields["page"]
            content = self._named[page] = self.tree.store.peek(page)
            self._untrack(page)
            self._track(page, content)
        elif kind == PAGE_ALLOC:
            page = event.fields["page"]
            content = self._named[page] = self.tree.store.peek(page)
            self._track(page, content)
        elif kind == PAGE_FREE:
            page = event.fields["page"]
            self._named[page] = None
            self._untrack(page)
        elif kind in (DATA_SPLIT, INDEX_SPLIT):
            self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
            if event.op and event.op not in self._bulk_ops:
                chain = self._op_splits.get(event.op, 0) + 1
                self._op_splits[event.op] = chain
                if chain > self.max_splits_per_op:
                    self.max_splits_per_op = chain
        elif kind == OP_BEGIN:
            # A store opening a transaction clears its record of touched
            # pages: every page named so far belongs to a closed one.
            if self._named and not self.tree.store.touched:
                self._settle()
                self._named.clear()
            if event.fields.get("name") == "bulk_load":
                # A bulk load is one span performing O(n / capacity)
                # planned splits; the no-cascade guarantee is about
                # *single-record* operations, so its chain is exempt.
                self._bulk_ops.add(event.op)
            else:
                self._op_splits.setdefault(event.op, 0)
        elif kind == OP_END:
            self.ops_seen += 1
            self._op_splits.pop(event.op, None)
            self._bulk_ops.discard(event.op)
            # Height only changes inside update operations; sampling the
            # high-water mark at op end keeps emit() branch-light.
            height = self.tree.height
            if height > self.max_height_seen:
                self.max_height_seen = height
        elif kind in (PROMOTION, DEMOTION, MERGE, REDISTRIBUTE):
            self.event_counts[kind] = self.event_counts.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # Incremental bookkeeping
    # ------------------------------------------------------------------

    def _track(self, page_id: int, content: Any) -> None:
        if content is None:
            # A page allocated without content carries no structure yet;
            # the write that fills it will track it.
            return
        if _is_index(content):
            level = content.index_level
            size = len(content)
            guards: dict[int, int] = {}
            for entry in content.entries:
                if entry.level < level - 1:
                    guards[entry.level] = guards.get(entry.level, 0) + 1
            if guards:
                self._page_guards[page_id] = guards
                agg = self._guards
                for glevel, n in guards.items():
                    agg[glevel] = agg.get(glevel, 0) + n
        else:
            level = 0
            size = len(content)
        self._pages[page_id] = (level, size)
        bucket = self._occ.setdefault(level, {})
        bucket[size] = bucket.get(size, 0) + 1

    def _settle(self) -> None:
        """Re-derive each named page an abort put back or dropped.

        Every gauge calls this first: an abort raises after the op's own
        ``op_end``, so nothing else would tell the monitor that pages
        went back until the next transaction begins.
        """
        peek = self.tree.store.peek
        for page_id, folded in self._named.items():
            try:
                content = peek(page_id)
            except PageNotFoundError:
                content = None
            if content is not folded:
                self._untrack(page_id)
                self._track(page_id, content)
                self._named[page_id] = content

    def _untrack(self, page_id: int) -> None:
        tracked = self._pages.pop(page_id, None)
        if tracked is None:
            return
        level, size = tracked
        bucket = self._occ[level]
        remaining = bucket[size] - 1
        if remaining:
            bucket[size] = remaining
        else:
            del bucket[size]
            if not bucket:
                del self._occ[level]
        guards = self._page_guards.pop(page_id, None)
        if guards:
            agg = self._guards
            for glevel, n in guards.items():
                left = agg[glevel] - n
                if left:
                    agg[glevel] = left
                else:
                    del agg[glevel]

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------

    def occupancy(self, level: int) -> dict[int, int]:
        """Histogram ``{population: page count}`` at ``level`` (copy)."""
        self._settle()
        return dict(self._occ.get(level, {}))

    @property
    def levels(self) -> list[int]:
        """The levels with at least one live page, ascending."""
        self._settle()
        return sorted(self._occ)

    @property
    def pages_by_level(self) -> dict[int, int]:
        """Live node counts per level (level 0 = data pages)."""
        self._settle()
        return {
            level: sum(bucket.values())
            for level, bucket in sorted(self._occ.items())
        }

    @property
    def guards_by_level(self) -> dict[int, int]:
        """Guard entries per entry level, over all index pages (live)."""
        self._settle()
        return self._guards

    @property
    def height(self) -> int:
        """The tree's current height (live attribute, not derived)."""
        return self.tree.height

    @property
    def points(self) -> int:
        """Live record count (the tree's own O(1) attribute).

        Derivable from the level-0 occupancy histogram too — the audit
        checks that the histogram's weighted sum agrees.
        """
        return self.tree.count

    def min_occupancy(self, level: int, exempt_root: bool = True) -> int | None:
        """Smallest population at ``level``; ``None`` if no page there.

        With ``exempt_root`` (the default, matching the paper and the
        checker) the root page's population is excluded; if the root is
        the only page at its level the answer is ``None``.
        """
        self._settle()
        bucket = self._occ.get(level)
        if not bucket:
            return None
        if exempt_root:
            root = self._pages.get(self.tree.root_page)
            if root is not None and root[0] == level:
                root_size = root[1]
                sizes = sorted(bucket)
                for size in sizes:
                    if size != root_size or bucket[size] > 1:
                        return size
                return None
        return min(bucket)

    def pages_below(
        self, level: int, minimum: int, limit: int | None = None
    ) -> tuple[int, ...]:
        """Ids of non-root pages at ``level`` under ``minimum`` entries.

        Sorted ascending; with ``limit``, at most that many (the health
        findings carry a bounded offender list).
        """
        self._settle()
        root = self.tree.root_page
        out = sorted(
            page_id
            for page_id, (page_level, size) in self._pages.items()
            if page_level == level and size < minimum and page_id != root
        )
        return tuple(out if limit is None else out[:limit])

    def mean_occupancy(self, level: int) -> float | None:
        """Mean population at ``level``; ``None`` if no page there."""
        self._settle()
        bucket = self._occ.get(level)
        if not bucket:
            return None
        pages = sum(bucket.values())
        return sum(size * n for size, n in bucket.items()) / pages

    def publish(self, registry: Any) -> None:
        """Write the gauges into a :class:`~repro.obs.MetricsRegistry`.

        The names form the ``monitor.*`` namespace sampled by the
        :class:`~repro.obs.TimeSeriesSink` (pass this method as its
        ``prepare`` hook so every sample sees current values).
        """
        self._settle()
        registry.gauge("monitor.points").set(self.points)
        registry.gauge("monitor.height").set(self.height)
        registry.gauge("monitor.max_splits_per_op").set(self.max_splits_per_op)
        registry.gauge("monitor.guards_total").set(
            sum(self._guards.values())
        )
        for level, pages in self.pages_by_level.items():
            registry.gauge(f"monitor.pages.l{level}").set(pages)
            min_occ = self.min_occupancy(level)
            if min_occ is not None:
                registry.gauge(f"monitor.occ_min.l{level}").set(min_occ)
            mean_occ = self.mean_occupancy(level)
            if mean_occ is not None:
                registry.gauge(f"monitor.occ_mean.l{level}").set(mean_occ)

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def audit(self) -> AuditReport:
        """Cross-check the incremental state against a full sweep.

        Calls the tree's ``tree_stats()`` (a counted O(n) walk — this is
        the one deliberately expensive method here) and compares every
        quantity the monitor tracks incrementally.  Any disagreement is
        a monitor bug or an unobserved mutation path; the property tests
        assert ``clean`` across random workloads.
        """
        drift: list[str] = []
        self._settle()
        stats = self.tree.tree_stats()

        swept: dict[int, dict[int, int]] = {}
        for level, occ in stats.occupancies_by_level.items():
            bucket: dict[int, int] = {}
            for size in occ:
                bucket[size] = bucket.get(size, 0) + 1
            swept[level] = bucket
        for level in sorted(set(swept) | set(self._occ)):
            mine = self._occ.get(level, {})
            theirs = swept.get(level, {})
            if mine != theirs:
                drift.append(
                    f"level {level} occupancy histogram: "
                    f"incremental {dict(sorted(mine.items()))} != "
                    f"sweep {dict(sorted(theirs.items()))}"
                )
        if self._guards != stats.guards_by_level:
            drift.append(
                f"guards_by_level: incremental {self._guards} != "
                f"sweep {stats.guards_by_level}"
            )
        histogram_points = sum(
            size * n for size, n in self._occ.get(0, {}).items()
        )
        if histogram_points != stats.n_points:
            drift.append(
                f"points: level-0 histogram sums to {histogram_points} != "
                f"sweep {stats.n_points}"
            )
        if self.height != stats.height:
            drift.append(
                f"height: incremental {self.height} != sweep {stats.height}"
            )
        n_tracked = len(self._pages)
        if n_tracked != stats.pages_total:
            drift.append(
                f"pages: tracking {n_tracked} != sweep {stats.pages_total}"
            )
        return AuditReport(clean=not drift, drift=drift)

    def to_dict(self) -> dict[str, Any]:
        """The gauges as one JSON-ready mapping."""
        self._settle()
        return {
            "points": self.points,
            "height": self.height,
            "max_height_seen": self.max_height_seen,
            "max_splits_per_op": self.max_splits_per_op,
            "ops_seen": self.ops_seen,
            "pages_by_level": {
                str(level): n for level, n in self.pages_by_level.items()
            },
            "guards_by_level": {
                str(level): n
                for level, n in sorted(self._guards.items())
            },
            "occupancy_by_level": {
                str(level): {
                    str(size): n
                    for size, n in sorted(self._occ[level].items())
                }
                for level in sorted(self._occ)
            },
            "event_counts": dict(sorted(self.event_counts.items())),
        }
