"""The event tracer: span-aware, zero-overhead when disabled.

Every :class:`~repro.core.tree.BVTree` and every storage backend carries
a :class:`Tracer` (disabled until something subscribes).  The
instrumented hot paths are written against one discipline:

    tracer = tree.tracer
    if tracer.enabled:          # one attribute load + branch
        tracer.emit(KIND, ...)  # fields dict built only when tracing

so a disabled tracer costs a single predictable branch per potential
event — no field formatting, no object construction, no call.  The
perf harness measures the residual cost (see ``docs/OBSERVABILITY.md``);
the acceptance gate holds it under 2% on the descent-bound cases.

Operation *spans* group events: :meth:`Tracer.operation` allocates an op
id, emits ``op_begin``/``op_end`` and stamps every event emitted inside
the ``with`` block with that id, so a trace can be cut back into
per-operation slices (which is how the EXPLAIN reports and the metrics
aggregator reconstruct per-descent figures).  When disabled it returns a
shared no-op context manager, not a fresh object.

Subscribers
-----------
A tracer carries one tuple of *subscribers*: objects with an
``emit(event)`` method and a ``kinds`` attribute, the frozenset of event
kinds they consume or ``None`` for every kind (full captures such as
:class:`~repro.obs.sinks.RingSink`).  :meth:`Tracer.subscribe` and
:meth:`Tracer.unsubscribe` are the only configuration calls; a tracer
with no subscribers is the disabled tracer.  Each call recomputes three
pieces of derived state:

- ``enabled`` — some subscriber takes a read-path kind
  (:data:`READ_PATH_KINDS`, or every kind).  Read-path sites
  (descents, query traversals, page reads) guard on it;
- ``structural`` — at least one subscriber.  Update-path sites
  (splits, merges, promotions, page lifecycle, the update op spans)
  guard on it, so a :class:`~repro.obs.monitor.GuaranteeMonitor` can
  watch a tree's structure while exact-match reads still cost exactly
  one disabled-branch check (the perf probe holds the monitored read
  path within 3% of the uninstrumented one);
- a route table from kind to subscribers.  :meth:`Tracer.emit` does one
  lookup and builds a :class:`TraceEvent` only if someone takes that
  kind, so each subscriber receives exactly the kinds it declared, in
  stream order, and no page write builds an event nobody reads.

The ``profiler`` slot is the one documented exception to the list (see
:attr:`Tracer.profiler`).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any

from repro.obs.events import (
    DESCENT_STEP,
    EVENT_KINDS,
    GUARD_HIT,
    OP_BEGIN,
    OP_END,
    PAGE_READ,
    QUERY_PRUNE,
    QUERY_VISIT,
    TraceEvent,
)
from repro.obs.sinks import TraceSink

__all__ = ["READ_PATH_KINDS", "Tracer"]

#: The kinds only the read paths emit; their sites guard on ``enabled``.
READ_PATH_KINDS = frozenset(
    {DESCENT_STEP, GUARD_HIT, PAGE_READ, QUERY_VISIT, QUERY_PRUNE}
)


#: The shared do-nothing span a disabled tracer hands out (op id 0).
_NULL_SPAN = nullcontext(0)


class _Span:
    """An open operation span; emits ``op_begin``/``op_end`` around it."""

    __slots__ = ("_tracer", "_name", "_fields", "_op", "_outer")

    def __init__(self, tracer: "Tracer", name: str, fields: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._fields = fields
        self._op = 0
        self._outer = 0

    def __enter__(self) -> int:
        tracer = self._tracer
        self._op = tracer._next_op()
        self._outer = tracer.current_op
        tracer.current_op = self._op
        tracer.emit(OP_BEGIN, name=self._name, **self._fields)
        return self._op

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        tracer = self._tracer
        if exc_type is None:
            tracer.emit(OP_END, name=self._name)
        else:
            tracer.emit(OP_END, name=self._name, error=getattr(exc_type, "__name__", str(exc_type)))
        tracer.current_op = self._outer
        return None


class Tracer:
    """Routes :class:`~repro.obs.events.TraceEvent` s to its subscribers.

    ``Tracer(*subscribers)`` subscribes each argument in order; a bare
    ``Tracer()`` is disabled.  ``enabled`` and ``structural`` are derived
    from the subscriber list (see the module docstring) and never
    written directly.

    One tracer is typically *shared*: a tree and its storage backend
    emit into the same instance, so page-level and structure-level
    events interleave in one totally ordered stream (``seq``).
    """

    __slots__ = (
        "enabled",
        "structural",
        "current_op",
        "profiler",
        "_seq",
        "_ops",
        "_subscribers",
        "_routes",
        "_catch_all",
    )

    def __init__(self, *subscribers: TraceSink):
        #: The operation span id events are stamped with (0 = no span).
        self.current_op = 0
        #: Direct-call profiler hook for the *read* hot paths, or ``None``:
        #: the one exception to the subscriber list.  A read span plus
        #: event construction costs more than the profiler's whole
        #: budget, so an attached :class:`~repro.obs.profile.OpProfiler`
        #: sits here and untraced reads mark ``profiler.rstats.reads``
        #: and call ``profiler.end_*()`` directly.  One profiler holds
        #: the slot at a time (a second ``attach`` raises).  Update paths
        #: ignore this slot; the profiler subscribes to their op spans.
        self.profiler: Any = None
        self._seq = 0
        self._ops = 0
        self._subscribers: tuple[TraceSink, ...] = ()
        self._route()
        for subscriber in subscribers:
            self.subscribe(subscriber)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def subscribe(self, subscriber: TraceSink) -> None:
        """Deliver the kinds ``subscriber`` declares to it (idempotent)."""
        if subscriber not in self._subscribers:
            self._subscribers += (subscriber,)
            self._route()

    def unsubscribe(self, subscriber: TraceSink) -> None:
        """Stop delivering to ``subscriber`` (a no-op if never subscribed)."""
        self._subscribers = tuple(
            s for s in self._subscribers if s is not subscriber
        )
        self._route()

    @property
    def subscribers(self) -> tuple[TraceSink, ...]:
        """The current subscribers, in subscription order."""
        return self._subscribers

    def _route(self) -> None:
        """Recompute the route table and the two hot-path guards."""
        subscribers = self._subscribers
        declared = [s.kinds for s in subscribers]
        every = EVENT_KINDS.union(*filter(None, declared))
        routes: dict[str, tuple[TraceSink, ...]] = {}
        for subscriber, kinds in zip(subscribers, declared):
            for kind in every if kinds is None else kinds:
                routes[kind] = routes.get(kind, ()) + (subscriber,)
        self._routes = routes
        #: Unknown kinds (not in any declaration) reach full captures only.
        self._catch_all = tuple(s for s in subscribers if s.kinds is None)
        #: Checked by the read-path emission sites.
        self.enabled = not READ_PATH_KINDS.isdisjoint(routes)
        #: Checked by the update-path emission sites.
        self.structural = bool(subscribers)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Deliver one event to the subscribers that take ``kind``.

        Hot paths must guard the call with ``if tracer.enabled:`` (read
        paths) or ``if tracer.structural:`` (update paths) so the
        keyword dict is never built on the disabled path; the route
        lookup is the safety net for cold paths, not the fast path.
        """
        targets = self._routes.get(kind, self._catch_all)
        if targets:
            self._seq += 1
            event = TraceEvent(self._seq, self.current_op, kind, fields)
            for subscriber in targets:
                subscriber.emit(event)

    def operation(self, name: str, **fields: Any) -> Any:
        """A context manager spanning one logical operation.

        Returns a shared no-op span when nothing is subscribed, so
        wrapping an operation costs one call and one branch on the
        untraced path.  Entering the real span emits ``op_begin`` (with
        ``fields``), leaving it emits ``op_end`` (with the exception
        name, if one is propagating); events inside carry the span's op
        id.  Any subscriber opens real spans — the update-path consumers
        group split work per operation through them.
        """
        if not self.structural:
            return _NULL_SPAN
        return _Span(self, name, fields)

    @property
    def seq(self) -> int:
        """The sequence number of the most recently emitted event."""
        return self._seq

    def _next_op(self) -> int:
        self._ops += 1
        return self._ops
