"""Per-operation cost profiles: latency, I/O deltas, cascades, slow ops.

Where the :class:`~repro.obs.monitor.GuaranteeMonitor` watches a tree's
*structure*, an :class:`OpProfiler` watches its *cost*: for every
operation kind (``get``, ``range``, ``knn``, ``insert``, ``delete``,
``bulk_load``, ...) it aggregates a latency histogram, a pages-touched
histogram, split-cascade depth and total page I/O — the per-endpoint
figures the dynamic-indexability analysis (and the future serving
layer) argue about.  Everything lives in a
:class:`~repro.obs.metrics.MetricsRegistry` under the ``profile.*``
namespace, so one :func:`~repro.obs.metrics.to_prometheus` call (or a
:class:`~repro.obs.metrics.TimeSeriesSink`) exports it verbatim.

Two collection paths, by design
-------------------------------
*Update* operations (``insert``/``delete``/``bulk_load``) already open
tracer spans under the ``structural`` guard, so the profiler subscribes
to the tracer declaring ``kinds = {op_begin, op_end, data_split,
index_split}`` and folds each event in O(1) — exactly the
:class:`GuaranteeMonitor` discipline.

*Read* operations never open spans while the tracer is disabled: a span
plus :class:`~repro.obs.events.TraceEvent` construction costs more than
an entire exact-match descent's profiling budget (the perf probe holds
profiled gets within 5% of bare ones).  Instead the profiler registers
itself on ``tracer.profiler`` and the read paths take the before-op
marks inline (one ``perf_counter`` read, one logical-read count off
:attr:`OpProfiler.rstats`) and close with a single
:meth:`OpProfiler.end_get` (etc.) call — two ``perf_counter`` reads, one
I/O-counter delta and one raw-sample append per op (exact-match samples
fold into the histograms in :data:`GET_BATCH` batches), no event
machinery.  The two
paths are mutually exclusive per operation (a read either runs under a
read-path subscriber, which opens its span for the profiler to see, or
on the direct path), so nothing is double-counted.

Slow-op log
-----------
A :class:`SlowOpLog` captures any operation exceeding a latency or a
pages-touched threshold as a structured JSONL record (kind, latency,
pages, cascade, layout, query detail).  For query kinds the profiler
attaches a full ``tree.explain()`` report to the record — the query is
re-run under EXPLAIN's capture tracer, which carries no profiler, so the
re-run never recurses into the log.

Layering: like the rest of ``repro.obs`` this module never imports
``repro.core`` — the tree is duck-typed (``tracer``, ``store``,
``layout``, ``explain``) exactly as :class:`MonitoredTree` is.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

from repro.errors import ReproError
from repro.obs.events import (
    DATA_SPLIT,
    INDEX_SPLIT,
    OP_BEGIN,
    OP_END,
    TraceEvent,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "CASCADE_BUCKETS",
    "GET_BATCH",
    "KindProfile",
    "LATENCY_BUCKETS_US",
    "OpProfiler",
    "PAGES_BUCKETS",
    "QUERY_KINDS",
    "SlowOpLog",
    "UPDATE_KINDS",
]

#: Exact-match samples buffered on the hot path between histogram folds
#: (see :meth:`OpProfiler.end_get`).
GET_BATCH = 512

#: Latency buckets in microseconds: fine resolution around the
#: single-descent regime (tens of us in-memory), coarse tails for range
#: scans and bulk loads.
LATENCY_BUCKETS_US = (
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    1_000_000.0,
)

#: Pages-touched buckets: a descent reads ``height + 1`` pages, range
#: and k-NN traversals tens, bulk loads hundreds.
PAGES_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256, 512)

#: Split-cascade buckets (0 = the common no-split case; the paper's
#: guarantee keeps single-record chains short).
CASCADE_BUCKETS = (0, 1, 2, 3, 4, 6, 8, 12)

#: Kinds whose slow-op records get an automatic EXPLAIN attachment.
QUERY_KINDS = frozenset({"get", "range", "knn"})

#: Kinds that mutate the tree; their profiles track split cascades.
UPDATE_KINDS = frozenset({"insert", "delete", "bulk_load"})


class KindProfile:
    """The aggregated cost profile of one operation kind.

    All instruments are owned by the profiler's registry (named
    ``profile.<kind>.*``), so a registry snapshot or a Prometheus
    exposition always reflects the live profile — ``record`` updates
    them in place, nothing is copied at publish time.  The latency
    histogram's ``count`` *is* the successful-operation count (errors
    are tallied separately and never pollute the distributions).
    """

    __slots__ = (
        "kind",
        "latency_us",
        "pages",
        "cascade",
        "errors",
        "pages_written",
        "max_latency_us",
        "max_cascade",
    )

    def __init__(self, kind: str, registry: MetricsRegistry):
        prefix = f"profile.{kind}"
        self.kind = kind
        self.latency_us: Histogram = registry.histogram(
            f"{prefix}.latency_us", LATENCY_BUCKETS_US
        )
        self.pages: Histogram = registry.histogram(
            f"{prefix}.pages", PAGES_BUCKETS
        )
        self.cascade: Histogram | None = (
            registry.histogram(f"{prefix}.cascade", CASCADE_BUCKETS)
            if kind in UPDATE_KINDS
            else None
        )
        self.errors: Counter = registry.counter(f"{prefix}.errors")
        # No pages_read counter: the pages histogram's sum *is* the
        # total logical reads (``_sum`` in the Prometheus exposition),
        # and the read hot path cannot afford a redundant counter.
        self.pages_written: Counter = registry.counter(
            f"{prefix}.pages_written"
        )
        self.max_latency_us: Gauge = registry.gauge(
            f"{prefix}.max_latency_us"
        )
        self.max_cascade = 0

    @property
    def ops(self) -> int:
        """Successful operations recorded (the latency histogram count)."""
        return self.latency_us.count

    def record(
        self, latency_us: float, reads: int, writes: int, cascade: int
    ) -> None:
        """Fold one completed operation into the profile (O(1))."""
        self.latency_us.observe(latency_us)
        self.pages.observe(reads)
        if self.cascade is not None:
            self.cascade.observe(cascade)
            if cascade > self.max_cascade:
                self.max_cascade = cascade
        if writes:
            self.pages_written.inc(writes)
        worst = self.max_latency_us.value
        if worst is None or latency_us > worst:
            self.max_latency_us.set(latency_us)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready summary (quantiles are bucket upper bounds)."""
        out: dict[str, Any] = {
            "ops": self.ops,
            "errors": self.errors.value,
            "latency_us": {
                "mean": self.latency_us.mean,
                "p50": self.latency_us.quantile(0.5),
                "p99": self.latency_us.quantile(0.99),
                "max": self.max_latency_us.value,
            },
            "pages": {
                "mean": self.pages.mean,
                "p99": self.pages.quantile(0.99),
                "total": self.pages.total,
            },
            "pages_written": self.pages_written.value,
        }
        if self.cascade is not None:
            out["cascade"] = {
                "mean": self.cascade.mean,
                "max": self.max_cascade,
            }
        return out


class SlowOpLog:
    """Structured capture of operations that crossed a cost threshold.

    An operation is *slow* when its latency reaches ``latency_us`` or
    its pages-touched count reaches ``pages`` (whichever thresholds are
    set; at least one is required — a log that can never trigger is a
    configuration error, not an empty log).  Records are JSON-ready
    dicts; the newest ``keep`` stay readable in :attr:`records`, and
    with ``path`` every record is also appended to a JSONL file as it
    happens (one ``json.dumps`` line, flushed — slow ops are rare by
    definition, so the write cost never sits on the common path).
    """

    def __init__(
        self,
        path: Any = None,
        *,
        latency_us: float | None = None,
        pages: int | None = None,
        keep: int = 64,
        explain_queries: bool = True,
    ):
        if latency_us is None and pages is None:
            raise ReproError(
                "SlowOpLog needs at least one threshold "
                "(latency_us=... or pages=...)"
            )
        if keep <= 0:
            raise ReproError(f"keep must be positive, got {keep}")
        self.latency_us = latency_us
        self.pages = pages
        self.keep = keep
        self.explain_queries = explain_queries
        #: The newest ``keep`` records, oldest first.
        self.records: list[dict[str, Any]] = []
        #: Total slow operations seen (including ones rotated out).
        self.count = 0
        self.path: Path | None = None
        self._file: Any = None
        if path is not None:
            self.path = Path(path)
            try:
                self._file = self.path.open("w")
            except OSError as exc:
                raise ReproError(
                    f"cannot open slow-op log {path}: {exc}"
                ) from None

    def matches(self, latency_us: float, pages: int) -> bool:
        """Whether a (latency, pages) pair crosses a threshold."""
        if self.latency_us is not None and latency_us >= self.latency_us:
            return True
        return self.pages is not None and pages >= self.pages

    def record(self, entry: dict[str, Any]) -> None:
        """Append one slow-op record (rotating the in-memory window)."""
        self.count += 1
        self.records.append(entry)
        if len(self.records) > self.keep:
            del self.records[0]
        if self._file is not None:
            self._file.write(json.dumps(entry, sort_keys=False) + "\n")
            self._file.flush()

    @property
    def last(self) -> dict[str, Any] | None:
        """The most recent slow-op record, if any."""
        return self.records[-1] if self.records else None

    def close(self) -> None:
        """Close the JSONL file, if one is open (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "SlowOpLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "latency_us": self.latency_us,
            "pages": self.pages,
            "records": list(self.records),
        }


class OpProfiler:
    """Live per-kind cost profiles for one BV-tree.

    Attach with :meth:`attach` (subscribes the profiler to the tracer
    and registers it as the tracer's direct-call ``profiler`` hook),
    detach with :meth:`detach`.  While attached:

    - every update operation is profiled through its tracer span
      (latency from ``op_begin``/``op_end``, cascade depth from the
      split events in between, I/O from the store's counter deltas);
    - every read operation is profiled through the direct
      ``begin``/``end_*`` calls the tree's read paths make when they
      see ``tracer.profiler`` set — unless the tracer is enabled, in
      which case reads open spans too and the subscription covers them.

    The instruments live in :attr:`registry` under ``profile.<kind>.*``
    and update in place; failed operations only bump
    ``profile.<kind>.errors`` so the histograms hold successful-op
    distributions exactly (the consistency property tests compare their
    counts against :class:`~repro.core.stats.OpCounters` deltas).
    """

    #: Subscriber declaration: the tracer builds no other kind for it
    #: (see repro.obs.tracer).
    kinds = frozenset({OP_BEGIN, OP_END, DATA_SPLIT, INDEX_SPLIT})

    def __init__(
        self,
        tree: Any,
        registry: MetricsRegistry | None = None,
        slow_log: SlowOpLog | None = None,
    ):
        self.tree = tree
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slow_log = slow_log
        self.layout: str = getattr(tree, "layout", "object")
        #: kind -> KindProfile (created on each kind's first operation).
        self.profiles: dict[str, KindProfile] = {}
        self.attached = False
        #: open span id -> (kind, t0, reads0, writes0, detail fields).
        self._open: dict[int, tuple[str, float, int, int, dict[str, Any]]] = {}
        #: open span id -> split chain length so far.
        self._splits: dict[int, int] = {}
        #: Read-side I/O stats and buffered-ness, resolved at attach
        #: time.  Public on purpose: the tree's read paths inline the
        #: before-op marks (one clock read, one logical-read count)
        #: against these instead of paying a method call — see
        #: :meth:`end_get` for the budget arithmetic.
        self.rstats: Any = None
        self.buffered = False
        self._wstats: Any = None
        self._explaining = False
        self._get_profile: KindProfile | None = None
        #: Raw ``(latency_us, pages)`` samples from the exact-match hot
        #: path, folded into the get-kind histograms in batches.  A
        #: direct per-op histogram update (two bisects, six attribute
        #: read-modify-writes) costs more than the entire 1.05x overhead
        #: budget; a list append is a third of it, and the amortized
        #: fold costs the same total work off the hot path.  Every read
        #: surface (:meth:`flush`, :meth:`profile`, :meth:`to_dict`,
        #: :meth:`detach`) folds pending samples first, so consumers
        #: never see the buffer — at most :data:`GET_BATCH` gets are in
        #: flight between folds while attached.
        self._get_raw: list[tuple[float, int]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> "OpProfiler":
        """Start profiling (idempotent); resolves the I/O counters."""
        if self.attached:
            return self
        store = self.tree.store
        rstats = store.stats
        # A BufferPool counts logical reads as hits + misses and holds
        # no ``reads`` field; a bare store counts them in IOStats.reads.
        self.buffered = not hasattr(rstats, "reads")
        self.rstats = rstats
        self._wstats = store.store.stats if self.buffered else rstats
        tracer = self.tree.tracer
        tracer.subscribe(self)
        tracer.profiler = self
        self.attached = True
        return self

    def detach(self) -> None:
        """Stop profiling (the profiles freeze at their current values)."""
        if not self.attached:
            return
        self.flush()
        tracer = self.tree.tracer
        if tracer.profiler is self:
            tracer.profiler = None
        tracer.unsubscribe(self)
        self._open.clear()
        self._splits.clear()
        self.attached = False

    def __enter__(self) -> "OpProfiler":
        return self.attach()

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # Direct-call hooks (the read hot paths; see repro.obs.tracer)
    # ------------------------------------------------------------------

    def end_get(
        self,
        t0: float,
        r0: int,
        point: Sequence[float],
        _clock: Any = perf_counter,
    ) -> None:
        """Close a profiled exact-match lookup.

        ``t0``/``r0`` are the before-op marks the caller took inline
        (``perf_counter()`` and the logical-read count off
        :attr:`rstats`).  This is the one profiled path with a real
        budget — the perf probe gates it at 1.05x a bare descent, well
        under a microsecond — which shapes everything here: the marks
        are locals passed in rather than profiler state (no extra
        method call, no attribute round-trip), the histograms are not
        updated in place but fed one raw ``(latency_us, pages)`` sample
        folded in :data:`GET_BATCH` batches by :meth:`flush`, and the
        clock callable rides in a default argument to skip the global
        load.  The slow-op check stays per-operation — a slow query
        must be EXPLAINed against the tree state that made it slow, not
        a batch later.  Range/k-NN closes cost tens of microseconds to
        milliseconds and keep the readable :meth:`_finish` path.
        """
        elapsed_us = (_clock() - t0) * 1e6
        rstats = self.rstats
        reads = (
            rstats.hits + rstats.misses if self.buffered else rstats.reads
        ) - r0
        raw = self._get_raw
        raw.append((elapsed_us, reads))
        if len(raw) >= GET_BATCH:
            self._flush_get()
        log = self.slow_log
        if log is not None and log.matches(elapsed_us, reads):
            self._slow(
                "get", elapsed_us, reads, 0, 0, {"point": list(point)}
            )

    def flush(self) -> None:
        """Fold any buffered hot-path samples into the instruments.

        Called automatically by every read surface and on detach;
        callers holding direct references to the registry's
        ``profile.get.*`` instruments while the profiler is attached
        should call it before reading.
        """
        if self._get_raw:
            self._flush_get()

    def _flush_get(self) -> None:
        profile = self._get_profile
        if profile is None:
            profile = self._get_profile = self._make_profile("get")
        raw = self._get_raw
        latencies, reads = zip(*raw)
        profile.latency_us.observe_many(latencies)
        profile.pages.observe_many(reads)
        worst = profile.max_latency_us.value
        peak = max(latencies)
        if worst is None or peak > worst:
            profile.max_latency_us.value = peak
        raw.clear()

    def end_range(
        self,
        t0: float,
        r0: int,
        lows: Sequence[float],
        highs: Sequence[float],
    ) -> None:
        """Close a profiled range query."""
        slow_us, reads = self._finish("range", t0, r0)
        if slow_us is not None:
            self._slow(
                "range",
                slow_us,
                reads,
                0,
                0,
                {"lows": list(lows), "highs": list(highs)},
            )

    def end_knn(
        self, t0: float, r0: int, point: Sequence[float], k: int
    ) -> None:
        """Close a profiled k-NN query."""
        slow_us, reads = self._finish("knn", t0, r0)
        if slow_us is not None:
            self._slow(
                "knn", slow_us, reads, 0, 0, {"point": list(point), "k": k}
            )

    def end_error(self, kind: str) -> None:
        """Close a profiled read op that raised: count, don't distort."""
        profile = self.profiles.get(kind)
        if profile is None:
            profile = self._make_profile(kind)
        profile.errors.inc()

    def _finish(
        self, kind: str, t0: float, r0: int
    ) -> tuple[float | None, int]:
        """Record one successful read op; non-None when it was slow."""
        elapsed_us = (perf_counter() - t0) * 1e6
        rstats = self.rstats
        reads = (
            rstats.hits + rstats.misses if self.buffered else rstats.reads
        ) - r0
        profile = self.profiles.get(kind)
        if profile is None:
            profile = self._make_profile(kind)
        profile.record(elapsed_us, reads, 0, 0)
        log = self.slow_log
        if log is not None and log.matches(elapsed_us, reads):
            return elapsed_us, reads
        return None, reads

    # ------------------------------------------------------------------
    # TraceSink interface (subscriber: update paths, and traced reads)
    # ------------------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        """Fold one structural event into the profiles (O(1))."""
        kind = event.kind
        if kind == OP_BEGIN:
            name = event.fields.get("name")
            if name:
                rstats = self.rstats
                reads = (
                    rstats.hits + rstats.misses
                    if self.buffered
                    else rstats.reads
                )
                detail = {
                    key: value
                    for key, value in event.fields.items()
                    if key != "name"
                }
                self._open[event.op] = (
                    name,
                    perf_counter(),
                    reads,
                    self._wstats.writes,
                    detail,
                )
        elif kind == OP_END:
            entry = self._open.pop(event.op, None)
            cascade = self._splits.pop(event.op, 0)
            if entry is None:
                return
            name, t0, reads0, writes0, detail = entry
            profile = self.profiles.get(name)
            if profile is None:
                profile = self._make_profile(name)
            if "error" in event.fields:
                profile.errors.inc()
                return
            elapsed_us = (perf_counter() - t0) * 1e6
            rstats = self.rstats
            reads = (
                rstats.hits + rstats.misses
                if self.buffered
                else rstats.reads
            ) - reads0
            writes = self._wstats.writes - writes0
            profile.record(elapsed_us, reads, writes, cascade)
            log = self.slow_log
            if log is not None and log.matches(elapsed_us, reads):
                self._slow(name, elapsed_us, reads, writes, cascade, detail)
        elif kind in (DATA_SPLIT, INDEX_SPLIT):
            if event.op:
                self._splits[event.op] = self._splits.get(event.op, 0) + 1

    # ------------------------------------------------------------------
    # Slow-op capture
    # ------------------------------------------------------------------

    def _slow(
        self,
        kind: str,
        latency_us: float,
        reads: int,
        writes: int,
        cascade: int,
        detail: dict[str, Any],
    ) -> None:
        log = self.slow_log
        if log is None:
            return
        entry: dict[str, Any] = {
            "kind": kind,
            "layout": self.layout,
            "latency_us": round(latency_us, 3),
            "pages": reads,
            "writes": writes,
            "cascade": cascade,
        }
        if detail:
            entry["detail"] = detail
        if (
            log.explain_queries
            and kind in QUERY_KINDS
            and not self._explaining
        ):
            # Re-run the query under EXPLAIN's capture tracer.  The
            # capture tracer carries no profiler and only its ring, so the
            # re-run is invisible to this profiler; the guard above only
            # protects against a hypothetical reentrant emit.
            self._explaining = True
            try:
                report = self._explain(kind, detail)
            except ReproError as exc:
                entry["explain_error"] = str(exc)
                report = None
            finally:
                self._explaining = False
            if report is not None:
                entry["explain"] = report.to_dict()
        log.record(entry)

    def _explain(self, kind: str, detail: dict[str, Any]) -> Any:
        tree = self.tree
        if kind == "get" and "point" in detail:
            return tree.explain(point=detail["point"])
        if kind == "range" and "lows" in detail and "highs" in detail:
            return tree.explain(rect=(detail["lows"], detail["highs"]))
        if kind == "knn" and "point" in detail:
            return tree.explain(knn=detail["point"], k=detail.get("k", 1))
        return None

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def _make_profile(self, kind: str) -> KindProfile:
        profile = self.profiles.get(kind)
        if profile is None:
            profile = KindProfile(kind, self.registry)
            self.profiles[kind] = profile
        return profile

    def profile(self, kind: str) -> KindProfile | None:
        """The profile for ``kind``, or ``None`` if never observed."""
        self.flush()
        return self.profiles.get(kind)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready summary of every kind profile."""
        self.flush()
        out: dict[str, Any] = {
            "layout": self.layout,
            "kinds": {
                kind: profile.to_dict()
                for kind, profile in sorted(self.profiles.items())
            },
        }
        if self.slow_log is not None:
            out["slow"] = self.slow_log.to_dict()
        return out
