"""Group-commit write batching for the serving layer.

HTTP write requests land one at a time, but the service pays fixed
costs per commit — the writer lock handoff and the version publication.
The batcher amortises them: requests queue up, and a single background
writer thread blocks for the first one, then takes whatever else is
*already* queued (up to ``max_batch``) and applies the whole group
under **one** lock hold and **one** publication via
:meth:`TreeService.apply_ops`, then resolves each request's future with
its own outcome.  There is no timer: a group is exactly what queued
while the previous group was committing, so coalescing happens under
load and a lone write never waits.  The WAL does *not* share the group:
a durable store still commits (and, with ``sync="commit"``, fsyncs)
one WAL transaction per op, so a group of five ops publishes once but
logs five commits.

Requests stay independent — a failed op (duplicate key, missing key)
fails only its own future; the rest of the group commits.  This is
deliberately *not* the all-or-nothing ``/v1/batch`` endpoint, which
goes through :meth:`TreeService.apply_batch` directly.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Sequence

from repro.concurrency.service import TreeService, WriteOp
from repro.errors import ReproError

__all__ = ["BatchStats", "WriteBatcher"]


class BatchStats:
    """Counters describing the batcher's coalescing behaviour."""

    __slots__ = ("batches", "requests", "ops", "max_batch_seen")

    def __init__(self) -> None:
        self.batches = 0
        self.requests = 0
        self.ops = 0
        self.max_batch_seen = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "ops": self.ops,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch": (self.requests / self.batches)
            if self.batches
            else 0.0,
        }


class _Pending:
    __slots__ = ("ops", "future")

    def __init__(self, ops: list[WriteOp], future: "Future[Any]"):
        self.ops = ops
        self.future = future


#: Queue sentinel that tells the writer thread to exit.
_SHUTDOWN = object()


class WriteBatcher:
    """A background writer thread that drains queued writes in groups."""

    def __init__(self, service: TreeService, *, max_batch: int = 64):
        if max_batch <= 0:
            raise ReproError(f"max_batch must be positive, got {max_batch}")
        self.service = service
        self.max_batch = max_batch
        self.stats = BatchStats()
        self._queue: "queue.Queue[Any]" = queue.Queue()
        #: Guards ``_closed`` together with the enqueue, so no request
        #: can land behind the shutdown sentinel.
        self._lock = threading.Lock()
        self._closed = False
        self._thread = threading.Thread(
            target=self._drain_loop, name="repro-write-batcher", daemon=True
        )
        self._thread.start()

    def submit(self, ops: Sequence[WriteOp]) -> "Future[tuple[list[tuple[bool, Any]], int]]":
        """Enqueue one request's ops; resolves to ``(outcomes, lsn)``.

        The future carries the request's own per-op outcomes plus the
        LSN at which its successful effects became visible.  A
        service-level failure (poisoned writer) rejects the future with
        the underlying exception.
        """
        future: "Future[tuple[list[tuple[bool, Any]], int]]" = Future()
        with self._lock:
            if self._closed:
                raise ReproError("write batcher is closed")
            self._queue.put(_Pending(list(ops), future))
        return future

    def close(self) -> None:
        """Stop accepting writes, drain the queue, join the thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_SHUTDOWN)
        self._thread.join()

    # -- writer thread ---------------------------------------------------

    def _drain_loop(self) -> None:
        inbox = self._queue
        item = None
        while item is not _SHUTDOWN:
            item = inbox.get()
            group: list[_Pending] = []
            while item is not _SHUTDOWN:
                group.append(item)
                if len(group) == self.max_batch:
                    break
                try:
                    item = inbox.get_nowait()
                except queue.Empty:
                    break
            if group:
                self._apply_group(group)
        # Nothing can follow the sentinel (``submit`` enqueues under the
        # lock that ``close`` sets ``_closed`` under); should anything
        # have, fail it rather than leave its caller blocked forever.
        while True:
            try:
                leftover = inbox.get_nowait()
            except queue.Empty:
                return
            leftover.future.set_exception(ReproError("write batcher is closed"))

    def _apply_group(self, group: list[_Pending]) -> None:
        flat: list[WriteOp] = []
        slices: list[tuple[int, int]] = []
        for pending in group:
            start = len(flat)
            flat.extend(pending.ops)
            slices.append((start, len(flat)))
        try:
            outcomes, lsn = self.service.apply_ops(flat)
        except BaseException as exc:
            for pending in group:
                pending.future.set_exception(exc)
            return
        stats = self.stats
        stats.batches += 1
        stats.requests += len(group)
        stats.ops += len(flat)
        stats.max_batch_seen = max(stats.max_batch_seen, len(group))
        for pending, (start, end) in zip(group, slices):
            pending.future.set_result((outcomes[start:end], lsn))
