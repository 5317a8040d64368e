"""Single-writer / many-readers serving facade over one BV-tree.

Concurrency model (documented in full in ``docs/SERVING.md``):

- **One writer.**  All mutations are serialized under an internal lock.
  The tree and its store are only ever touched by whichever thread
  holds it, so the core algorithms stay single-threaded and free of
  concurrency primitives (lint rule R15 enforces that).
- **Shadow-committed versions.**  The live store is wrapped in a
  :class:`RecordingStore` that tracks which pages each operation
  touches.  After a successful operation (or group), the service clones
  exactly the dirty pages and publishes a fresh immutable
  :class:`~repro.concurrency.snapshots.TreeVersion` — a *new*
  :class:`~repro.concurrency.snapshots.PageTable` that copies only the
  chunks holding dirty ids and shares every other chunk with the
  previous version — by swapping one reference.
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
from typing import Any, Callable, ContextManager, Iterable, Iterator, Sequence

from repro.concurrency.clone import clone_page
from repro.concurrency.snapshots import PageTable, Snapshot, TreeVersion
from repro.core.knn import KNNResult
from repro.core.query import QueryResult
from repro.core.tree import BVTree
from repro.errors import KeyNotFoundError, ReproError, StorageError
from repro.obs.tracer import Tracer
from repro.storage.interface import Storage
from repro.storage.stats import SizeClassStats

__all__ = [
    "BatchAbortedError",
    "RecordingStore",
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


class RecordingStore:
    """A ``Storage`` decorator that records which pages writes touch.

    Pure passthrough for reads; ``allocate``/``write``/``free`` mark the
    page id dirty.  The service drains the dirty set at publication time
    to clone exactly the pages the committed operation changed.  Layered
    *above* a durable store, so the WAL still sees every mutation.
    """

    __slots__ = ("inner", "dirty")

    def __init__(self, inner: Storage):
        self.inner = inner
        self.dirty: set[int] = set()

    def drain(self) -> set[int]:
        """The dirty set since the last drain (and reset it)."""
        dirty = self.dirty
        self.dirty = set()
        return dirty

    # -- passthrough surface -------------------------------------------

    @property
    def tracer(self) -> Tracer:
        return self.inner.tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        self.inner.tracer = tracer

    @property
    def page_bytes(self) -> int:
        return self.inner.page_bytes

    def allocate(self, content: Any = None, size_class: int = 0) -> int:
        page_id = self.inner.allocate(content, size_class=size_class)
        self.dirty.add(page_id)
        return page_id

    def read(self, page_id: int) -> Any:
        return self.inner.read(page_id)

    def peek(self, page_id: int) -> Any:
        return self.inner.peek(page_id)

    def write(self, page_id: int, content: Any) -> None:
        self.dirty.add(page_id)
        self.inner.write(page_id, content)

    def free(self, page_id: int) -> None:
        self.dirty.add(page_id)
        self.inner.free(page_id)

    def register_size_class(self, size_class: int, page_bytes: int) -> None:
        self.inner.register_size_class(size_class, page_bytes)

    def size_class_of(self, page_id: int) -> int:
        return self.inner.size_class_of(page_id)

    def page_ids(self) -> Iterator[int]:
        return self.inner.page_ids()

    def live_pages(self, size_class: int | None = None) -> int:
        return self.inner.live_pages(size_class)

    def live_bytes(self) -> int:
        return self.inner.live_bytes()

    def class_stats(self) -> dict[int, SizeClassStats]:
        return self.inner.class_stats()

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.inner

    def transaction(self, name: str) -> ContextManager[Any]:
        return self.inner.transaction(name)


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
        self._recorder = RecordingStore(tree.store)
        tree.store = self._recorder
        self._lock = threading.RLock()
        self._poison: BaseException | None = None
        self._commits = 0
        pages = PageTable.from_items(
            (pid, clone_page(self._recorder.peek(pid)))
            for pid in self._recorder.page_ids()
        )
        self._version = TreeVersion(
            pages,
            tree.root_page,
            tree.height,
            tree.count,
            lsn=0,
            wal_seq=getattr(self._recorder.inner, "wal_seq", None),
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
                    outcomes.append((True, self._apply_one(op)))
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
                    undo_op = self._apply_logged(op)
                except ReproError as exc:
                    if self._poison is not None:
                        raise
                    self._rollback(undo)
                    raise BatchAbortedError(index, exc) from exc
                undo.append(undo_op)
            return self._publish()

    def checkpoint(self) -> Any:
        """Checkpoint a WAL-backed store (no-op result for in-memory)."""
        with self._lock:
            self._check_writable()
            inner = self._recorder.inner
            checkpoint = getattr(inner, "checkpoint", None)
            if checkpoint is None:
                return None
            return self._run(checkpoint)

    def detach(self) -> BVTree:
        """Unwrap the recording store and hand the tree back (test aid)."""
        with self._lock:
            self._tree.store = self._recorder.inner
            return self._tree

    # -- internals ------------------------------------------------------

    def _check_writable(self) -> None:
        if self._poison is not None:
            raise StorageError(
                f"service writer disabled by earlier failure: {self._poison!r}"
            )

    def _run(self, fn: Callable[[], Any]) -> Any:
        """Run one mutation; poison the writer if it tore page state.

        A validation error raised before any page was touched (duplicate
        key, missing key, bad geometry) leaves the tree intact and the
        dirty set empty: it simply propagates and the writer stays live.
        An exception *after* pages were dirtied (an injected crash, a
        storage fault mid-cascade) means the live tree may be torn, so
        the writer is disabled — readers keep the last committed version
        and recovery takes over (see the crash-under-concurrency tests).
        """
        before = len(self._recorder.dirty)
        try:
            return fn()
        except BaseException as exc:
            if len(self._recorder.dirty) != before or isinstance(
                exc, StorageError
            ):
                self._poison = exc
            raise

    def _apply_one(self, op: WriteOp) -> Any:
        verb = op[0]
        if verb == "insert":
            _, point, value, replace = op
            return self._run(
                lambda: self._tree.insert(point, value, replace=replace)
            )
        if verb == "delete":
            return self._run(lambda: self._tree.delete(op[1]))
        raise ReproError(f"write op must be insert/delete, got {verb!r}")

    def _apply_logged(self, op: WriteOp) -> WriteOp:
        """Apply one op and return its inverse for the undo log."""
        verb = op[0]
        if verb == "insert":
            _, point, value, replace = op
            previous: tuple[Any, ...] | None = None
            if replace:
                try:
                    previous = (self.snapshot_free_get(point),)
                except KeyNotFoundError:
                    previous = None
            self._run(
                lambda: self._tree.insert(point, value, replace=replace)
            )
            if previous is None:
                return ("delete", point)
            return ("insert", point, previous[0], True)
        if verb == "delete":
            value = self._run(lambda: self._tree.delete(op[1]))
            return ("insert", op[1], value, True)
        raise ReproError(f"write op must be insert/delete, got {verb!r}")

    def snapshot_free_get(self, point: Sequence[float]) -> Any:
        """Writer-side read of the *live* tree (caller holds the lock)."""
        return self._tree.get(point)

    def _rollback(self, undo: list[WriteOp]) -> None:
        try:
            for op in reversed(undo):
                self._apply_one(op)
        except BaseException as exc:  # pragma: no cover - defensive
            self._poison = exc
            raise

    def _publish(self) -> int:
        recorder = self._recorder
        dirty = recorder.drain()
        old = self._version
        puts: dict[int, Any] = {}
        drops: list[int] = []
        for pid in dirty:
            if pid in recorder:
                puts[pid] = clone_page(recorder.peek(pid))
            else:
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
            wal_seq=getattr(recorder.inner, "wal_seq", None),
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
