"""The metrics registry: counters, gauges and log-linear histograms.

Where the tracer records *which* events happened, the registry records
*distributions*: per-operation nodes visited, guard checks per descent,
split fan-out, buffer hit ratio.  The perf harness snapshots a
registry into ``BENCH_<suite>.json`` next to the wall-clock samples, so
the behavioural figures travel with the timings they explain.

Instruments are deliberately minimal and JSON-ready:

- :class:`Counter` — a monotone total;
- :class:`Gauge` — a point-in-time value (last write wins);
- :class:`Histogram` — log-linear buckets (each power of two split into
  :data:`SUB_BUCKETS` equal ones) plus count/total, so a quantile is
  within 1/32 of the true order statistic whatever the value's scale.

:class:`MetricsSink` turns the registry into a
:class:`~repro.obs.sinks.TraceSink`: fed a tree's event stream it
derives the standard BV-tree metrics (see its docstring) — metrics are
a *view over the trace*, not a second instrumentation layer, so the two
can never disagree.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from math import ceil, frexp, ldexp
from typing import Any, Sequence

from repro.errors import ReproError
from repro.obs.events import (
    DATA_SPLIT,
    DESCENT_STEP,
    GUARD_HIT,
    INDEX_SPLIT,
    OP_END,
    PAGE_READ,
    TraceEvent,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "SUB_BUCKETS",
    "TimeSeriesSink",
    "bucket_edge",
    "lint_prometheus",
    "to_prometheus",
]

#: Equal-width buckets per power of two in every :class:`Histogram`.
SUB_BUCKETS = 32
#: A ``frexp`` mantissa in ``[0.5, 1)`` times this lies in
#: ``[SUB_BUCKETS, 2 * SUB_BUCKETS)``, one unit per bucket.
_SCALE = 2 * SUB_BUCKETS
_SHIFT = _SCALE.bit_length() - 1  # _SCALE == 2**_SHIFT


def bucket_edge(value: float) -> float:
    """The upper edge of the :class:`Histogram` bucket holding ``value``.

    With ``value = m * 2**e`` and ``0.5 <= m < 1`` (``frexp``), the
    bucket is ``e * 32 + ceil((2m - 1) * 32)`` and its edge is
    ``ceil(64m) * 2**(e - 6)``: the smallest multiple of the octave's
    bucket width at or above ``value``.  So the edge is never below the
    value and at most 1/32 above it, every integer 0..64 is its own
    edge, and zero's edge is 0.0.  Edges are exact floats.
    """
    m, e = frexp(value)
    return ldexp(ceil(m * _SCALE), e - _SHIFT)


class Counter:
    """A monotone total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ReproError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value; the last :meth:`set` wins.

    Empty-state contract: before the first :meth:`set`, ``value`` is
    ``None`` and :meth:`to_dict` carries ``"value": None`` — a gauge
    that was never written is distinguishable from one legitimately at
    0.0 (a hit ratio of zero and an unsampled hit ratio are different
    facts, and the doctor must not conflate them).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def to_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Log-linear histogram: observation counts per bucket edge.

    Each power of two is split into :data:`SUB_BUCKETS` equal buckets
    (see :func:`bucket_edge`); zero has a bucket of its own.  Only
    occupied buckets are stored, as ``counts`` ``{upper edge: count}``,
    so there is nothing to configure and no overflow bucket.
    ``count``/``total`` give the observation count and sum, so mean and
    rate-per-op derive from one snapshot.  Values must be finite.
    """

    __slots__ = ("name", "counts", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.counts: dict[float, int] = {}
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        edge = bucket_edge(value)
        counts = self.counts
        counts[edge] = counts.get(edge, 0) + 1
        self.count += 1
        self.total += value

    def observe_many(self, values: Sequence[float]) -> None:
        """Fold a whole batch of observations at once.

        Equivalent to calling :meth:`observe` per value but one C-level
        sort plus one bisect per occupied bucket instead of n
        Python-level calls: the smallest value not yet folded names its
        bucket's edge, and every sorted value up to that edge shares
        the bucket.  This is what makes sample buffering on the
        profiler's exact-match hot path pay off — the deferred fold
        costs a few nanoseconds per sample instead of a whole observe.
        """
        n = len(values)
        if not n:
            return
        ordered = sorted(values)
        counts = self.counts
        i = 0
        while i < n:
            edge = bucket_edge(ordered[i])
            j = bisect_right(ordered, edge, i)
            counts[edge] = counts.get(edge, 0) + j - i
            i = j
        self.count += n
        self.total += sum(ordered)

    @property
    def mean(self) -> float | None:
        """Average observation; ``None`` when empty.

        Empty-state contract: an empty histogram has no mean — returning
        a made-up 0.0 would read as "observed values averaging zero".
        Callers rendering a snapshot print ``None`` as absent.
        """
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """The upper edge of the bucket holding the ``q``-quantile.

        ``q`` must be in ``[0, 1]``; the rank is ``ceil(count * q)``
        (at least 1).  The answer is never below that order statistic
        and at most 1/32 above it; integers up to 64 come back exactly.
        Returns ``None`` only when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError(
                f"quantile must be in [0, 1], got {q} "
                f"(histogram {self.name!r})"
            )
        if not self.count:
            return None
        rank = max(1, ceil(self.count * q))
        cumulative = 0
        for edge, bucket_count in sorted(self.counts.items()):
            cumulative += bucket_count
            if cumulative >= rank:
                break
        return edge

    def to_dict(self) -> dict[str, Any]:
        buckets = sorted(self.counts.items())
        return {
            "type": "histogram",
            "buckets": [edge for edge, _ in buckets],
            "counts": [bucket_count for _, bucket_count in buckets],
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
        }


class MetricsRegistry:
    """A namespace of instruments, snapshot-able to JSON-ready dicts.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for a name returns the same instrument; asking for an existing name
    as a different instrument type is an error (it would silently fork
    the metric).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        return self._get_or_create(name, Histogram, lambda: Histogram(name))

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._instruments)

    def get(self, name: str) -> Any:
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    def snapshot(self) -> dict[str, Any]:
        """Every instrument's current state, keyed by name (JSON-ready)."""
        return {
            name: instrument.to_dict()
            for name, instrument in sorted(self._instruments.items())
        }

    def reset(self) -> None:
        """Drop every instrument (names become free again)."""
        self._instruments.clear()

    def _get_or_create(self, name: str, cls: type, factory: Any) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ReproError(
                    f"metric {name!r} is a {type(existing).__name__}, "
                    f"not a {cls.__name__}"
                )
            return existing
        created = factory()
        self._instruments[name] = created
        return created


class MetricsSink:
    """A trace sink that aggregates the event stream into a registry.

    Derived metrics (all prefixed to keep the namespace navigable):

    - ``events.<kind>`` counters — one per observed event kind;
    - ``descent.nodes_visited`` histogram — ``descent_step`` events per
      operation span (observed when the span closes);
    - ``descent.guard_checks`` histogram — ``guard_hit`` events per span;
    - ``split.fanout`` histogram — the ``moved`` field of every
      ``data_split``/``index_split`` event;
    - ``buffer.hit_ratio`` gauge — cumulative cache hits over logical
      reads, updated per ``page_read`` (for the ratio over time, sample
      the same registry with a :class:`TimeSeriesSink`).
    """

    #: A full-capture subscriber: every event kind.
    kinds = None

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._steps_by_op: dict[int, int] = {}
        self._guards_by_op: dict[int, int] = {}
        self._hits = 0
        self._reads = 0

    def emit(self, event: TraceEvent) -> None:
        """Fold one event into the registry."""
        registry = self.registry
        registry.counter(f"events.{event.kind}").inc()
        kind = event.kind
        if kind == DESCENT_STEP:
            self._steps_by_op[event.op] = self._steps_by_op.get(event.op, 0) + 1
        elif kind == GUARD_HIT:
            self._guards_by_op[event.op] = (
                self._guards_by_op.get(event.op, 0) + 1
            )
        elif kind == OP_END:
            steps = self._steps_by_op.pop(event.op, None)
            if steps is not None:
                registry.histogram("descent.nodes_visited").observe(steps)
            guards = self._guards_by_op.pop(event.op, None)
            if guards is not None:
                registry.histogram("descent.guard_checks").observe(guards)
        elif kind in (DATA_SPLIT, INDEX_SPLIT):
            moved = event.fields.get("moved")
            if moved is not None:
                registry.histogram("split.fanout").observe(moved)
        elif kind == PAGE_READ:
            self._reads += 1
            if event.fields.get("physical") is False:
                self._hits += 1
            registry.gauge("buffer.hit_ratio").set(self._hits / self._reads)


class TimeSeriesSink:
    """Samples a :class:`MetricsRegistry` every N operations, columnar.

    The record is *columnar* — one list per metric plus one shared list
    of operation counts — rather than a dict per sample, so a whole
    100k-operation workload's health trajectory serialises to a compact
    JSON artifact (``len(metrics) + 1`` lists, not 100k/N dicts).

    Sampling is driven either by feeding the sink a trace stream (it
    counts ``op_end`` events; subscribe it to a tracer) or by calling
    :meth:`tick` per operation from a driver loop.  Each instrument
    contributes scalar columns: a counter or gauge its ``value``, a
    histogram its ``count`` and ``mean`` (as ``<name>.count`` /
    ``<name>.mean``).  A metric that first appears mid-run is backfilled
    with ``None`` for the samples it missed, and a gauge never set reads
    ``None`` — columns always share the length of ``ops``.

    ``prepare``, if given, is called with the registry immediately
    before each sample — the hook the guarantee monitor uses to publish
    its incremental gauges so the sampled registry is current.

    When the retained sample count would exceed ``max_samples`` the sink
    *compacts*: it drops every other sample and doubles the sampling
    stride, preserving the full time range at half resolution — a
    bounded artifact regardless of workload length.
    """

    #: Subscriber declaration: only op ends drive sampling.
    kinds = frozenset({OP_END})

    def __init__(
        self,
        registry: MetricsRegistry,
        every: int = 100,
        max_samples: int = 512,
        prepare: Any = None,
    ):
        if every <= 0:
            raise ReproError(f"every must be positive, got {every}")
        if max_samples < 2:
            raise ReproError(
                f"max_samples must be at least 2, got {max_samples}"
            )
        self.registry = registry
        self.every = every
        self.max_samples = max_samples
        self.prepare = prepare
        #: Cumulative operation count at each sample.
        self.ops: list[int] = []
        #: One equal-length column per scalar metric.
        self.columns: dict[str, list[float | None]] = {}
        self._op_count = 0
        self._since_sample = 0

    def emit(self, event: TraceEvent) -> None:
        """Count operation ends from a trace stream (subscriber usage)."""
        if event.kind == OP_END:
            self.tick()

    def tick(self) -> None:
        """Advance one operation; sample when the stride elapses."""
        self._op_count += 1
        self._since_sample += 1
        if self._since_sample >= self.every:
            self._since_sample = 0
            self.sample()

    def sample_end(self) -> None:
        """Close the series at the end state, once.

        Skipped when the last periodic sample already fell on the final
        operation (the op count is a multiple of the stride).
        """
        if not self.ops or self.ops[-1] != self._op_count:
            self.sample()

    def sample(self) -> None:
        """Take one sample of the registry right now."""
        if self.prepare is not None:
            self.prepare(self.registry)
        scalars = self._scalars()
        n_prior = len(self.ops)
        self.ops.append(self._op_count)
        for name, value in scalars.items():
            column = self.columns.get(name)
            if column is None:
                # Late-appearing metric: backfill the samples it missed.
                column = [None] * n_prior
                self.columns[name] = column
            column.append(value)
        for name, column in self.columns.items():
            if len(column) <= n_prior:
                column.append(None)
        if len(self.ops) > self.max_samples:
            self._compact()

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready columnar record."""
        return {
            "type": "timeseries",
            "every": self.every,
            "ops": list(self.ops),
            "metrics": {
                name: list(column)
                for name, column in sorted(self.columns.items())
            },
        }

    def _scalars(self) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        for name in self.registry.names():
            instrument = self.registry.get(name)
            if isinstance(instrument, Histogram):
                out[f"{name}.count"] = instrument.count
                out[f"{name}.mean"] = instrument.mean
            else:
                out[name] = instrument.value
        return out

    def _compact(self) -> None:
        # Keep every second sample, newest included, and double the
        # stride so future samples land at the new resolution.
        keep = slice((len(self.ops) - 1) % 2, None, 2)
        self.ops = self.ops[keep]
        for name, column in self.columns.items():
            self.columns[name] = column[keep]
        self.every *= 2


# ----------------------------------------------------------------------
# Prometheus text-format exposition
# ----------------------------------------------------------------------

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, namespace: str) -> str:
    """Sanitise a registry name into a legal Prometheus metric name."""
    flat = _PROM_INVALID.sub("_", name)
    if namespace:
        flat = f"{namespace}_{flat}"
    if not flat or not (flat[0].isalpha() or flat[0] in "_:"):
        flat = f"_{flat}"
    return flat


def _prom_value(value: float) -> str:
    if isinstance(value, bool):  # bool is an int; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def to_prometheus(
    registry: MetricsRegistry, namespace: str = "repro"
) -> str:
    """Render the whole registry in the Prometheus text format.

    Counters expose as ``<ns>_<name>_total``, gauges as ``<ns>_<name>``
    (a gauge never set is *omitted* — its ``None`` state has no legal
    sample), histograms as the standard cumulative ``_bucket{le=...}``
    series at their occupied bucket edges, then an explicit ``+Inf``
    bucket and ``_sum``/``_count``.
    Dots in registry names become underscores; output is sorted by
    registry name so two snapshots diff cleanly.  The result passes
    :func:`lint_prometheus`, which CI asserts on the live exposition.
    """
    lines: list[str] = []
    for name in registry.names():
        instrument = registry.get(name)
        metric = _prom_name(name, namespace)
        if isinstance(instrument, Counter):
            lines.append(f"# HELP {metric}_total {name} (counter)")
            lines.append(f"# TYPE {metric}_total counter")
            lines.append(
                f"{metric}_total {_prom_value(instrument.value)}"
            )
        elif isinstance(instrument, Gauge):
            if instrument.value is None:
                continue
            lines.append(f"# HELP {metric} {name} (gauge)")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            lines.append(f"# HELP {metric} {name} (histogram)")
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for edge, bucket_count in sorted(instrument.counts.items()):
                cumulative += bucket_count
                lines.append(
                    f'{metric}_bucket{{le="{_prom_value(edge)}"}}'
                    f" {cumulative}"
                )
            lines.append(
                f'{metric}_bucket{{le="+Inf"}} {instrument.count}'
            )
            lines.append(f"{metric}_sum {_prom_value(instrument.total)}")
            lines.append(f"{metric}_count {instrument.count}")
    return "\n".join(lines) + "\n" if lines else ""


_PROM_METRIC_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(\{[^{}]*\})?"  # optional label set
    r" (-?[0-9.eE+-]+|NaN|\+Inf|-Inf)$"  # value
)


def lint_prometheus(text: str) -> list[str]:
    """Validate Prometheus text-format exposition; return problem lines.

    An in-tree promtext lint (no external dependency): checks that every
    non-comment line parses as ``name[{labels}] value``, that metric
    names are legal, that each ``# TYPE`` appears once and before its
    metric's samples, that histograms carry a ``+Inf`` bucket with
    strictly increasing ``le`` bounds and cumulative non-decreasing
    bucket counts matching ``_count``, and that no sample (name +
    labels) repeats.  An empty list means the
    exposition is clean; CI fails the obs-smoke job on any finding.
    """
    problems: list[str] = []
    typed: dict[str, str] = {}
    sampled_names: set[str] = set()
    seen_samples: set[str] = set()
    histograms: dict[str, dict[str, Any]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            problems.append(f"line {lineno}: blank line in exposition")
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                problems.append(
                    f"line {lineno}: malformed comment {line!r} "
                    "(expected '# HELP name text' or '# TYPE name type')"
                )
                continue
            if parts[1] == "TYPE":
                name = parts[2]
                mtype = parts[3].strip() if len(parts) > 3 else ""
                if mtype not in (
                    "counter",
                    "gauge",
                    "histogram",
                    "summary",
                    "untyped",
                ):
                    problems.append(
                        f"line {lineno}: unknown metric type {mtype!r} "
                        f"for {name}"
                    )
                if name in typed:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {name}"
                    )
                if name in sampled_names:
                    problems.append(
                        f"line {lineno}: TYPE for {name} appears after "
                        "its samples"
                    )
                typed[name] = mtype
            continue
        match = _PROM_SAMPLE_RE.match(line)
        if match is None:
            problems.append(
                f"line {lineno}: unparseable sample line {line!r}"
            )
            continue
        name, labels, value_text = match.groups()
        if not _PROM_METRIC_RE.match(name):
            problems.append(
                f"line {lineno}: illegal metric name {name!r}"
            )
        key = f"{name}{labels or ''}"
        if key in seen_samples:
            problems.append(f"line {lineno}: duplicate sample {key}")
        seen_samples.add(key)
        sampled_names.add(name)
        try:
            value = float(value_text.replace("+Inf", "inf"))
        except ValueError:
            problems.append(
                f"line {lineno}: unparseable value {value_text!r}"
            )
            continue
        # Histogram bookkeeping: group by the base metric name.
        for suffix, field_name in (
            ("_bucket", "buckets"),
            ("_sum", "sum"),
            ("_count", "count"),
        ):
            if not name.endswith(suffix):
                continue
            base = name[: -len(suffix)]
            if typed.get(base) != "histogram":
                continue
            state = histograms.setdefault(
                base, {"buckets": [], "sum": None, "count": None}
            )
            if field_name == "buckets":
                le = None
                if labels:
                    le_match = re.search(r'le="([^"]*)"', labels)
                    if le_match:
                        le = le_match.group(1)
                if le is None:
                    problems.append(
                        f"line {lineno}: histogram bucket without an "
                        f"le label: {line!r}"
                    )
                else:
                    state["buckets"].append((lineno, le, value))
            else:
                state[field_name] = (lineno, value)
            break

    for base, state in sorted(histograms.items()):
        buckets = state["buckets"]
        if not buckets:
            continue
        les = [le for _, le, _ in buckets]
        if "+Inf" not in les:
            problems.append(f"histogram {base}: missing +Inf bucket")
        try:
            bounds = [float(le.replace("+Inf", "inf")) for le in les]
        except ValueError:
            problems.append(f"histogram {base}: unparseable le bound")
        else:
            if any(b >= a for b, a in zip(bounds, bounds[1:])):
                problems.append(
                    f"histogram {base}: le bounds do not strictly increase"
                )
        values = [value for _, _, value in buckets]
        if any(b > a for b, a in zip(values, values[1:])):
            problems.append(
                f"histogram {base}: bucket counts are not cumulative"
            )
        if state["count"] is not None and "+Inf" in les:
            inf_value = values[les.index("+Inf")]
            if inf_value != state["count"][1]:
                problems.append(
                    f"histogram {base}: +Inf bucket {inf_value} != "
                    f"_count {state['count'][1]}"
                )
        if state["sum"] is None:
            problems.append(f"histogram {base}: missing _sum sample")
        if state["count"] is None:
            problems.append(f"histogram {base}: missing _count sample")
    return problems
