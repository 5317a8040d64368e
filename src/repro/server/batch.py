"""Group-commit write batching on the serving loop.

HTTP write requests land one at a time, but the service pays fixed
costs per commit — the writer lock handoff and the version publication.
The batcher amortises them without a thread of its own.  The serving
loop (:mod:`repro.server.http`) calls :meth:`submit` for every write it
parses in one pass over its ready sockets, then :meth:`drain` once, so a
group is every write parsed in the same loop pass.  The drain commits
it in chunks of at most ``max_batch`` requests, each under **one** lock
hold and **one** publication via :meth:`TreeService.apply_ops`, and
hands each request its own outcome through the callback it was
submitted with.  There is no timer, so a lone write never waits for
stragglers.  A connection has at most one request in flight, so pending
writes are bounded by open connections.

The commit runs on the loop thread, so with ``sync="commit"`` reads
wait behind a group's fsyncs.  The WAL does *not* share the group: a
durable store still commits one WAL transaction per op.

Requests stay independent — a failed op (duplicate key, missing key)
fails only its own request's outcome; the rest of the group commits.
This is deliberately *not* the all-or-nothing ``/v1/batch`` endpoint,
which goes through :meth:`TreeService.apply_batch` directly.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Union

from repro.concurrency.service import TreeService, WriteOp
from repro.errors import ReproError

__all__ = ["BatchStats", "WriteBatcher"]

#: One request's result: its own per-op outcomes and the commit's LSN.
Outcome = tuple[list[tuple[bool, Any]], int]
#: What a request's callback receives: its outcome, or the exception
#: that rejected its whole group.
Settled = Union[Outcome, BaseException]
#: One queued request: its ops and the callback that settles it.
_Request = tuple[Sequence[WriteOp], Callable[[Settled], None]]


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


class WriteBatcher:
    """Coalesces the writes submitted between drains into group commits."""

    def __init__(self, service: TreeService, *, max_batch: int = 64):
        if max_batch <= 0:
            raise ReproError(f"max_batch must be positive, got {max_batch}")
        self.service = service
        self.max_batch = max_batch
        self.stats = BatchStats()
        self._pending: list[_Request] = []
        self._closed = False

    def submit(
        self, ops: Sequence[WriteOp], done: Callable[[Settled], None]
    ) -> None:
        """Queue one request's ops until the next :meth:`drain`.

        ``done`` is called once, on the draining thread, with
        ``(outcomes, lsn)``: the request's own per-op outcomes plus the
        LSN at which its successful effects became visible.  A
        service-level failure (poisoned writer) passes the exception
        instead.
        """
        if self._closed:
            raise ReproError("write batcher is closed")
        self._pending.append((ops, done))

    def drain(self) -> None:
        """Commit every request submitted since the last drain."""
        pending, self._pending = self._pending, []
        for start in range(0, len(pending), self.max_batch):
            self._commit(pending[start : start + self.max_batch])

    def close(self) -> None:
        """Refuse new writes and fail any still pending."""
        self._closed = True
        pending, self._pending = self._pending, []
        for _, done in pending:
            done(ReproError("write batcher is closed"))

    def _commit(self, group: list[_Request]) -> None:
        flat = [op for ops, _ in group for op in ops]
        try:
            outcomes, lsn = self.service.apply_ops(flat)
        except Exception as exc:
            for _, done in group:
                done(exc)
            return
        stats = self.stats
        stats.batches += 1
        stats.requests += len(group)
        stats.ops += len(flat)
        stats.max_batch_seen = max(stats.max_batch_seen, len(group))
        start = 0
        for ops, done in group:
            done((outcomes[start : start + len(ops)], lsn))
            start += len(ops)
