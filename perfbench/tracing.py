"""Span recording for the traced run, installed from outside the program.

:class:`SpanRecorder` wraps public entry points of each layer on their
classes — no program source is touched — and records one span per call:
``(span id, name, start, end, parent span id, request id)``.  A span
opened with no open span on its thread starts a new request; its
descendants share that request's id.  Spans stay in memory until
:meth:`SpanRecorder.dump`.  ``gc.callbacks`` record collector pauses.

:func:`layer_metrics` turns a dump into the per-layer times.  Starts and
ends are ``time.perf_counter`` readings (``CLOCK_MONOTONIC``), which are
comparable across processes, so the client's window bounds select the
spans of the measured window inside the server's dump.
"""

from __future__ import annotations

import gc
import itertools
import json
import statistics
import threading
from time import perf_counter
from typing import Any, Callable

from stats import self_times


class SpanRecorder:
    """Wraps layer entry points with span recording (see module doc)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: (span id, records, data pages) of each snapshot range query.
        self.ranges: list[tuple] = []
        self.gc_pauses: list[tuple[float, float]] = []
        #: (group apply start, µs the op waited since its submit).
        self.batch_waits: list[tuple[float, float]] = []
        self._ids = itertools.count()
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._submitted: dict[int, float] = {}
        self._undo: list[tuple[type, str, Any]] = []
        self._gc_start = 0.0

    # -- wrapping ------------------------------------------------------

    def _wrap(
        self,
        name: str | Callable[[tuple], str],
        fn: Callable,
        enter: Callable[[tuple, float], None] | None = None,
        leave: Callable[[int, tuple, Any], None] | None = None,
    ) -> Callable:
        spans = self.spans
        local = self._local
        ids = self._ids
        requests = self._requests

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent, request = stack[-1]
            else:
                parent, request = -1, next(requests)
            stack.append((sid, request))
            start = perf_counter()
            if enter is not None:
                enter(args, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(args)
                spans.append((sid, label, start, end, parent, request))
            if leave is not None:
                leave(sid, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _patch(self, cls: type, attr: str, name: Any, **hooks: Any) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, **hooks))

    def install(self) -> None:
        """Wrap every layer's entry points and start the gc callback."""
        from repro.concurrency.service import TreeService
        from repro.concurrency.snapshots import Snapshot
        from repro.core.tree import BVTree
        from repro.geometry.space import DataSpace
        from repro.server.app import ServingApp
        from repro.server.batch import WriteBatcher
        from repro.storage.durable.store import DurableStore
        from repro.storage.pager import PageStore

        self._patch(ServingApp, "handle", lambda a: "app " + a[2])
        self._patch(WriteBatcher, "submit", "batch.submit", enter=self._on_submit)
        for verb in ("insert", "delete", "bulk_load", "apply_batch"):
            self._patch(TreeService, verb, "svc." + verb)
        self._patch(TreeService, "apply_ops", "svc.apply_ops", enter=self._on_apply)
        self._patch(Snapshot, "get", "snap.get")
        self._patch(Snapshot, "range_query", "snap.range", leave=self._on_range)
        self._patch(Snapshot, "nearest", "snap.knn")
        for verb in ("insert", "delete", "bulk_load"):
            self._patch(BVTree, verb, "tree." + verb)
        self._patch(DataSpace, "point_path", "geom.point_path")
        for verb in ("allocate", "read", "write", "free"):
            self._patch(PageStore, verb, "store." + verb)
        for verb in ("allocate", "write", "free"):
            self._patch(DurableStore, verb, "store." + verb)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and drop the gc callback."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            cls, attr, original = self._undo.pop()
            setattr(cls, attr, original)

    # -- hooks ---------------------------------------------------------

    def _on_submit(self, args: tuple, start: float) -> None:
        for op in args[1]:
            self._submitted[id(op)] = start

    def _on_apply(self, args: tuple, start: float) -> None:
        submitted = self._submitted
        for op in args[1]:
            t = submitted.pop(id(op), None)
            if t is not None:
                self.batch_waits.append((start, (start - t) * 1e6))

    def _on_range(self, sid: int, args: tuple, result: Any) -> None:
        self.ranges.append((sid, len(result), result.data_pages_visited))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pauses.append((self._gc_start, perf_counter()))

    # -- output --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "ranges": self.ranges,
            "gc": self.gc_pauses,
            "batch_waits": self.batch_waits,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    dump: dict[str, Any],
    window: tuple[float, float],
    client_latency_us: list[float],
) -> dict[str, float]:
    """Per-layer times (and span-side counts) of one traced window.

    Spans are kept when they started inside ``window``, except
    ``tree.bulk_load``, which is set-up work.  A layer the workload
    does not reach reports 0.
    """
    w0, w1 = window
    spans = [tuple(s) for s in dump["spans"]]
    selfs = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    starts = {s[0]: s[2] for s in spans}
    dur: dict[str, list[float]] = {}
    self_us: dict[str, list[float]] = {}
    store_us = 0.0
    bulk_s = [end - start for _, name, start, end, _, _ in spans if name == "tree.bulk_load"]
    for sid, name, start, end, parent, _req in spans:
        if not w0 <= start <= w1:
            continue
        dur.setdefault(name, []).append((end - start) * 1e6)
        self_us.setdefault(name, []).append(selfs[sid] * 1e6)
        if name in ("store.allocate", "store.write", "store.free") and not (
            names.get(parent, "").startswith("store.")
        ):
            store_us += (end - start) * 1e6
    out: dict[str, float] = {}
    app = [d for name, ds in dur.items() if name.startswith("app ") for d in ds]
    out["server.http_us"] = (
        (sum(client_latency_us) - sum(app)) / len(client_latency_us)
        if app and client_latency_us
        else 0.0
    )
    for endpoint in ("get", "range", "knn", "insert", "delete"):
        out[f"server.app_us.{endpoint}"] = _median(dur.get(f"app /v1/{endpoint}", []))
    out["server.batch_wait_us"] = _median(
        [w for t, w in dump["batch_waits"] if w0 <= t <= w1]
    )
    out["concurrency.publish_us"] = _median(
        self_us.get("svc.insert", [])
        + self_us.get("svc.delete", [])
        + self_us.get("svc.apply_ops", [])
    )
    out["core.get_us"] = _median(dur.get("snap.get", []))
    out["core.range_us"] = _median(dur.get("snap.range", []))
    out["core.knn_us"] = _median(dur.get("snap.knn", []))
    out["geometry.point_path_us"] = _median(dur.get("geom.point_path", []))
    out["core.insert_us"] = _median(self_us.get("tree.insert", []))
    out["core.delete_us"] = _median(self_us.get("tree.delete", []))
    writes = len(dur.get("tree.insert", [])) + len(dur.get("tree.delete", []))
    out["storage.write_us"] = store_us / writes if writes else 0.0
    out["core.bulk_load_s"] = max(bulk_s, default=0.0)
    pauses = [(s, e) for s, e in dump["gc"] if w0 <= s <= w1]
    out["runtime.gc_ms_per_s"] = sum(e - s for s, e in pauses) * 1e3 / (w1 - w0)
    out["runtime.gc_max_pause_ms"] = max((e - s for s, e in pauses), default=0.0) * 1e3
    # Hits per data page of the window's range queries.
    rows = [(records, data) for sid, records, data in dump["ranges"] if w0 <= starts[sid] <= w1]
    data_pages = sum(r[1] for r in rows)
    out["core.range_hits_per_data_page"] = (
        sum(r[0] for r in rows) / data_pages if data_pages else 0.0
    )
    return out
