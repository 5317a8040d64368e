"""Single-writer / many-readers serving facade over one BV-tree.

Concurrency model (documented in full in ``docs/SERVING.md``):

- **One writer.**  All mutations are serialized under an internal lock.
  The tree and its store are only ever touched by whichever thread
  holds it, so the core algorithms stay single-threaded and free of
  concurrency primitives (lint rule R15 enforces that).
- **Shadow-committed versions.**  The tree keeps its own store, which
  copies a page on its first write in a transaction, so the live store
  and every version share each page object no write replaced since.
  After each operation the service adds the pages its transaction
  touched (``store.touched``) to a dirty set.  After a successful
  operation (or group), it publishes a fresh immutable
  :class:`~repro.concurrency.snapshots.TreeVersion` — a *new*
  :class:`~repro.concurrency.snapshots.PageTable` holding the dirty
  pages' last committed objects, which copies only the chunks holding
  dirty ids — by swapping one reference.
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
from typing import Any, Callable, Iterable, Sequence

from repro.concurrency.snapshots import PageTable, Snapshot, TreeVersion
from repro.core.knn import KNNResult
from repro.core.query import QueryResult
from repro.core.tree import BVTree
from repro.errors import KeyNotFoundError, ReproError, StorageError

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
    """An all-or-nothing batch failed and was rolled back.

    ``index`` is the position of the failing operation; ``cause`` the
    underlying error.  Nothing was published: readers never saw any of
    the batch's effects, and the live tree was restored.
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
        self._poison: BaseException | None = None
        self._commits = 0
        #: Pages the ops since the last publication touched.
        self._dirty: set[Any] = set()
        pages = PageTable.from_items(
            (pid, self._committed(pid)) for pid in store.page_ids()
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
        """True once a torn write or storage failure disabled the writer."""
        return self._poison is not None

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
            self._check_writable()
            self._run(lambda: self._tree.insert(point, value, replace=replace))
            return self._publish()

    def delete(self, point: Sequence[float]) -> tuple[Any, int]:
        """Delete one record; returns ``(old value, publishing LSN)``."""
        with self._lock:
            self._check_writable()
            value = self._run(lambda: self._tree.delete(point))
            return value, self._publish()

    def bulk_load(
        self,
        records: Iterable[tuple[Sequence[float], Any]],
        replace: bool = False,
    ) -> tuple[int, int]:
        """Bulk-build the (empty) tree; returns ``(loaded, LSN)``."""
        with self._lock:
            self._check_writable()
            loaded = self._run(
                lambda: self._tree.bulk_load(records, replace=replace)
            )
            return loaded, self._publish()

    def apply_ops(
        self, ops: Sequence[WriteOp]
    ) -> tuple[list[tuple[bool, Any]], int]:
        """Group commit: independent ops, one lock hold, one publication.

        Each op succeeds or fails on its own (a failed op reports its
        exception in the outcome list; the others proceed) — these are
        *independent requests* coalesced for throughput, not a
        transaction.  All successful effects become visible atomically
        at the returned LSN.  Per-op outcome: ``(True, result)`` or
        ``(False, exception)``.
        """
        with self._lock:
            self._check_writable()
            outcomes: list[tuple[bool, Any]] = []
            mutated = False
            for op in ops:
                try:
                    outcomes.append((True, self._apply(op)))
                    mutated = True
                except ReproError as exc:
                    if self._poison is not None:
                        raise
                    outcomes.append((False, exc))
            lsn = self._publish() if mutated else self._version.lsn
            return outcomes, lsn

    def apply_batch(self, ops: Sequence[WriteOp]) -> int:
        """All-or-nothing batch: apply every op or none of them.

        On failure the already-applied prefix is rolled back through an
        undo log (deletes re-insert the old value, inserts are deleted
        or restore the value they replaced), nothing is published, and
        :class:`BatchAbortedError` carries the failing index.  Readers
        can never observe a partially applied batch either way: effects
        only become visible at the single publication on success.
        """
        with self._lock:
            self._check_writable()
            undo: list[WriteOp] = []
            for index, op in enumerate(ops):
                try:
                    self._apply(op, undo)
                except ReproError as exc:
                    if self._poison is not None:
                        raise
                    self._rollback(undo)
                    raise BatchAbortedError(index, exc) from exc
            return self._publish()

    def checkpoint(self) -> Any:
        """Checkpoint a WAL-backed store (no-op result for in-memory)."""
        with self._lock:
            self._check_writable()
            checkpoint = getattr(self._store, "checkpoint", None)
            if checkpoint is None:
                return None
            try:
                return checkpoint()
            except StorageError as exc:
                self._poison = exc
                raise

    # -- internals ------------------------------------------------------

    def _check_writable(self) -> None:
        if self._poison is not None:
            raise StorageError(
                f"service writer disabled by earlier failure: {self._poison!r}"
            )

    def _run(self, fn: Callable[[], Any]) -> Any:
        """Run one tree operation; poison the writer if it tore page state.

        Each tree operation opens the store's outermost transaction as
        its first step, so ``store.touched`` afterwards names exactly
        the pages it touched; they join the dirty set either way.  A
        validation error raised before any page was touched (duplicate
        key, missing key, bad geometry) leaves the tree intact and the
        record empty: it simply propagates and the writer stays live.
        An exception *after* pages were touched (an injected crash, a
        storage fault mid-cascade) means the live tree may be torn, so
        the writer is disabled — readers keep the last committed version
        and recovery takes over (see the crash-under-concurrency tests).
        """
        store = self._store
        try:
            return fn()
        except BaseException as exc:
            if store.touched or isinstance(exc, StorageError):
                self._poison = exc
            raise
        finally:
            self._dirty.update(store.touched)

    def _apply(self, op: WriteOp, undo: list[WriteOp] | None = None) -> Any:
        """Apply one op and return its result; with an ``undo`` log,
        append the op's inverse to it once the op succeeded."""
        tree = self._tree
        verb = op[0]
        if verb == "insert":
            _, point, value, replace = op
            inverse: WriteOp = ("delete", point)
            if undo is not None and replace:
                try:
                    inverse = ("insert", point, tree.get(point), True)
                except KeyNotFoundError:
                    inverse = ("delete", point)  # the key was new
            result = self._run(
                lambda: tree.insert(point, value, replace=replace)
            )
        elif verb == "delete":
            result = self._run(lambda: tree.delete(op[1]))
            inverse = ("insert", op[1], result, True)
        else:
            raise ReproError(f"write op must be insert/delete, got {verb!r}")
        if undo is not None:
            undo.append(inverse)
        return result

    def _rollback(self, undo: list[WriteOp]) -> None:
        try:
            for op in reversed(undo):
                self._apply(op)
        except BaseException as exc:  # pragma: no cover - defensive
            self._poison = exc
            raise

    def _committed(self, page_id: int) -> Any:
        """``page_id``'s last committed object: the live one, unless a
        failed op left a private copy (``store.preimages``)."""
        preimages = self._store.preimages
        if page_id in preimages:
            return preimages[page_id]
        return self._store.peek(page_id)

    def _publish(self) -> int:
        store = self._store
        dirty = self._dirty
        self._dirty = set()
        old = self._version
        puts: dict[int, Any] = {}
        drops: list[int] = []
        for pid in dirty:
            if pid in store:
                puts[pid] = self._committed(pid)
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
