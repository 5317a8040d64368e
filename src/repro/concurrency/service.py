"""Single-writer / many-readers serving facade over one BV-tree.

Concurrency model (documented in full in ``docs/SERVING.md``):

- **One writer.**  All mutations are serialized under an internal lock.
  The tree and its store are only ever touched by whichever thread
  holds it, so the core algorithms stay single-threaded and free of
  concurrency primitives (lint rule R15 enforces that).
- **Shadow-committed versions.**  The tree keeps its own store, which
  copies a page on its first write in a transaction, so the live store
  and every version share each page object no write replaced since.
  A failed operation aborts its transaction, which puts back every
  page it touched.  After a successful operation (or group), the
  service publishes a fresh immutable
  :class:`~repro.concurrency.snapshots.TreeVersion` — a *new*
  :class:`~repro.concurrency.snapshots.PageTable` holding the live
  objects of the pages the operations' transactions touched
  (``store.touched``), which copies only the chunks holding those ids
  — by swapping one reference.
- **Wait-free readers.**  Opening a snapshot grabs the current version
  reference; no lock, no copy, no registration.  A snapshot stays
  consistent forever (it is unreachable garbage once dropped), so a
  reader can never observe a half-applied split cascade: intermediate
  states are simply never published.

The LSN published with each version counts committed operations (an
all-or-nothing batch or a group commit counts as one publication), which
is exactly the "prefix of the committed write history" the lockstep
suite checks reads against.  For WAL-backed stores the version also
carries the store's ``wal_seq`` so durability tests can correlate
published versions with WAL transactions.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Sequence

from repro.concurrency.snapshots import PageTable, Snapshot, TreeVersion
from repro.core.knn import KNNResult
from repro.core.query import QueryResult
from repro.core.tree import BVTree
from repro.errors import ReproError

__all__ = [
    "BatchAbortedError",
    "TreeService",
    "WriteOp",
    "insert_op",
    "delete_op",
]

#: One write operation in wire form: ``("insert", point, value, replace)``
#: or ``("delete", point)``.  Tuples (not closures) so schedules and
#: server payloads serialize to JSON and replay deterministically.
WriteOp = tuple


def insert_op(
    point: Sequence[float], value: Any = None, replace: bool = False
) -> WriteOp:
    """An insert in wire form."""
    return ("insert", tuple(point), value, replace)


def delete_op(point: Sequence[float]) -> WriteOp:
    """A delete in wire form."""
    return ("delete", tuple(point))


class BatchAbortedError(ReproError):
    """An all-or-nothing batch failed and was aborted.

    ``index`` is the position of the failing operation; ``cause`` the
    underlying error.  Nothing was published or logged: the batch's
    tree transaction put back every page and header field it touched.
    """

    def __init__(self, index: int, cause: BaseException):
        super().__init__(
            f"batch aborted at operation {index}: {cause}"
        )
        self.index = index
        self.cause = cause


class TreeService:
    """Concurrent serving facade: one writer, wait-free snapshot readers.

    Wraps an existing :class:`~repro.core.BVTree` (in-memory or
    WAL-backed).  The tree must not be mutated behind the service's back
    afterwards — all writes go through the service, which is what makes
    the published versions a faithful committed history.

    Thread safety: every public write method takes the internal writer
    lock; :meth:`snapshot` and the read conveniences never block.
    """

    def __init__(self, tree: BVTree):
        self._tree = tree
        self._store = store = tree.store
        self._lock = threading.RLock()
        self._commits = 0
        pages = PageTable.from_items(
            (pid, store.peek(pid)) for pid in store.page_ids()
        )
        self._version = TreeVersion(
            pages,
            tree.root_page,
            tree.height,
            tree.count,
            lsn=0,
            wal_seq=getattr(store, "wal_seq", None),
        )

    # -- introspection --------------------------------------------------

    @property
    def tree(self) -> BVTree:
        """The live tree (writer-side; hold the service's lock to touch it)."""
        return self._tree

    @property
    def lsn(self) -> int:
        """Number of published commits so far."""
        return self._version.lsn

    @property
    def poisoned(self) -> bool:
        """True once the store died (a crash or a failed commit); a
        failed op aborts instead."""
        return bool(getattr(self._store, "dead", False))

    def stats(self) -> dict[str, Any]:
        """A JSON-friendly summary of the service's state."""
        version = self._version
        return {
            "lsn": version.lsn,
            "wal_seq": version.wal_seq,
            "records": version.count,
            "height": version.height,
            "committed_pages": len(version.pages),
            "commits": self._commits,
            "poisoned": self.poisoned,
        }

    # -- snapshots and reads --------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the current committed version (O(1), wait-free).

        The returned snapshot is consistent forever; it is released by
        garbage collection when the last reference is dropped.
        """
        version = self._version
        tree = self._tree
        return Snapshot(version, tree.space, tree.policy, tree.page_layout)

    def get(self, point: Sequence[float]) -> Any:
        """Read ``point`` against the current committed version."""
        return self.snapshot().get(point)

    def contains(self, point: Sequence[float]) -> bool:
        """Membership against the current committed version."""
        return self.snapshot().contains(point)

    def range_query(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> QueryResult:
        """Range query against the current committed version."""
        return self.snapshot().range_query(lows, highs)

    def nearest(self, point: Sequence[float], k: int = 1) -> KNNResult:
        """k-NN against the current committed version."""
        return self.snapshot().nearest(point, k=k)

    def __len__(self) -> int:
        return self._version.count

    # -- writes ---------------------------------------------------------

    def insert(
        self, point: Sequence[float], value: Any = None, replace: bool = False
    ) -> int:
        """Insert one record; returns the LSN that made it visible."""
        with self._lock:
            self._tree.insert(point, value, replace=replace)
            return self._publish(self._store.touched)

    def delete(self, point: Sequence[float]) -> tuple[Any, int]:
        """Delete one record; returns ``(old value, publishing LSN)``."""
        with self._lock:
            value = self._tree.delete(point)
            return value, self._publish(self._store.touched)

    def bulk_load(
        self,
        records: Iterable[tuple[Sequence[float], Any]],
        replace: bool = False,
    ) -> tuple[int, int]:
        """Bulk-build the (empty) tree; returns ``(loaded, LSN)``."""
        with self._lock:
            loaded = self._tree.bulk_load(records, replace=replace)
            return loaded, self._publish(self._store.touched)

    def apply_ops(
        self, ops: Sequence[WriteOp]
    ) -> tuple[list[tuple[bool, Any]], int]:
        """Group commit: independent ops, one lock hold, one publication.

        Each op is its own transaction and succeeds or fails (aborts)
        on its own — these are *independent requests* coalesced for
        throughput.  All successful effects become visible atomically
        at the returned LSN.  Per-op outcome: ``(True, result)`` or
        ``(False, exception)`` of any type; only a dead store raises.
        """
        with self._lock:
            store = self._store
            outcomes: list[tuple[bool, Any]] = []
            dirty: set[Any] = set()
            for op in ops:
                try:
                    result = self._apply(op)
                except Exception as exc:
                    if self.poisoned:
                        raise
                    outcomes.append((False, exc))
                    continue
                dirty.update(store.touched)
                outcomes.append((True, result))
            lsn = self._publish(dirty) if dirty else self._version.lsn
            return outcomes, lsn

    def apply_batch(self, ops: Sequence[WriteOp]) -> int:
        """All-or-nothing batch: apply every op or none of them.

        The ops run in one tree transaction, so the batch is one WAL
        transaction.  On failure the transaction aborts, nothing is
        published or logged, and :class:`BatchAbortedError` carries the
        failing index.  Readers can never observe a partially applied
        batch either way: effects only become visible at the single
        publication on success.
        """
        with self._lock:
            index = 0
            try:
                with self._tree.transaction("batch"):
                    for index, op in enumerate(ops):
                        self._apply(op)
            except ReproError as exc:
                if self.poisoned:
                    raise
                raise BatchAbortedError(index, exc) from exc
            return self._publish(self._store.touched)

    def checkpoint(self) -> Any:
        """Checkpoint a WAL-backed store (no-op result for in-memory)."""
        with self._lock:
            checkpoint = getattr(self._store, "checkpoint", None)
            if checkpoint is None:
                return None
            return checkpoint()

    # -- internals ------------------------------------------------------

    def _apply(self, op: WriteOp) -> Any:
        """Apply one op and return its result."""
        tree = self._tree
        verb = op[0]
        if verb == "insert":
            _, point, value, replace = op
            return tree.insert(point, value, replace=replace)
        if verb == "delete":
            return tree.delete(op[1])
        raise ReproError(f"write op must be insert/delete, got {verb!r}")

    def _publish(self, dirty: Iterable[Any]) -> int:
        """Publish the last version with the ``dirty`` pages' objects."""
        store = self._store
        old = self._version
        puts: dict[int, Any] = {}
        drops: list[int] = []
        for pid in dirty:
            if pid in store:
                puts[pid] = store.peek(pid)
            elif type(pid) is int:  # not a durable class/meta key
                drops.append(pid)
        pages = old.pages.updated(puts, drops)
        tree = self._tree
        self._commits += 1
        version = TreeVersion(
            pages,
            tree.root_page,
            tree.height,
            tree.count,
            lsn=old.lsn + 1,
            wal_seq=getattr(store, "wal_seq", None),
        )
        # Single reference assignment publishes atomically: readers grab
        # either the old or the new version, never a mix.
        self._version = version
        return version.lsn

    def __repr__(self) -> str:
        return (
            f"TreeService(lsn={self.lsn}, {len(self)} points"
            f"{', POISONED' if self.poisoned else ''})"
        )
