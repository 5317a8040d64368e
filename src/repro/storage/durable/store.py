"""The durable store: a :class:`PageStore` whose mutations survive crashes.

:class:`DurableStore` subclasses the in-memory
:class:`~repro.storage.pager.PageStore` — the live page table, size-class
accounting, I/O counters and trace emission are inherited unchanged, so a
tree behaves *identically* over either backend (the equivalence tests
assert byte-identical query results and equal ``OpCounters`` deltas) —
and adds a durability shadow: every transaction's pages are appended
to a :class:`~repro.storage.durable.wal.WriteAheadLog` before it
closes, and a checkpoint compacts the log into a
:class:`~repro.storage.durable.pagefile` image.

Transactions are explicit
-------------------------
One *tree operation* is one WAL transaction.  ``BVTree.insert``,
``delete`` and ``bulk_load`` open the ``Storage`` protocol's
``transaction(name)`` context around their work, traced or not.  The
transaction is :class:`PageStore`'s: every mutation inside the
outermost open one only notes in ``touched`` *which* page it touched
(this store adds its size-class and metadata changes).  When the
transaction closes, :meth:`_commit` logs each touched page once: an
``alloc`` with its final image if the transaction allocated it, a
``write`` if it already existed, a ``free`` if the transaction freed it
(after an empty ``alloc`` if it also allocated it, so replay's
allocation cursor passes it).  The records are encoded and
appended one at a time, the commit marker riding the last one's type
byte (``REC_COMMIT_FLAG``, with the operation name in its payload), and
``sync="commit"`` adds one fsync.  A transaction closed by an exception
aborts (this store also puts back the size classes it registered) and
writes nothing at all, so a failed operation leaves no trace in memory,
in the log or after a crash.  Mutations outside any transaction (tree
construction, direct store use) auto-commit individually.

A written data page logs only its change since its last committed
object, the page store's pre-image (:attr:`PageStore.preimages`):
``writable`` copied the page on first touch, so that object is intact
(an abort reinstalls it).  A page with no pre-image logs its full image.

Crash discipline
----------------
A fault-plan crash point raises
:class:`~repro.errors.SimulatedCrashError` and leaves the store *dead*:
the files keep exactly the bytes the simulated crash left, and every
further access raises :class:`~repro.errors.StorageError`.  A commit
that fails halfway (an unencodable value, an I/O error) kills it too.
Reopen the directory with :func:`repro.storage.durable.recovery.recover_store`.
"""

from __future__ import annotations

import os
from contextlib import suppress
from typing import Any, Iterator

from repro.core.node import DataPage
from repro.errors import SimulatedCrashError, StorageError
from repro.obs.events import CHECKPOINT
from repro.storage.durable import codec
from repro.storage.durable.pagefile import (
    StoreState,
    dump_state,
    fsync_dir,
)
from repro.storage.durable.wal import (
    REC_ALLOC,
    REC_CLASS,
    REC_COMMIT_FLAG,
    REC_FREE,
    REC_META,
    REC_WRITE,
    WriteAheadLog,
)
from repro.storage.faults import FaultPlan
from repro.storage.pager import PageStore

__all__ = ["DurableStore", "PAGEFILE_NAME", "TMP_PAGEFILE_NAME", "WAL_NAME"]

WAL_NAME = "wal.log"
PAGEFILE_NAME = "pages.dat"
TMP_PAGEFILE_NAME = "pages.dat.tmp"

_SYNC_MODES = ("commit", "os")

#: What a touched page's content reads as once the transaction freed it.
_FREED = object()


def _image(
    txn: int, page_id: int, content: Any, size_class: int | None
) -> bytes:
    """A full-image ``alloc`` (``size_class`` given) or ``write`` body."""
    payload = {"id": page_id, "c": codec.encode_content(content), "x": txn}
    if size_class is not None:
        payload["sc"] = size_class
    return codec.dumps(payload)


class _DeadPageTable(dict):
    """The page table of a dead or closed store: every access raises.

    :class:`PageStore`'s hot paths go straight at ``self._pages``, so
    swapping the table for this stand-in poisons *reads* without the
    durable store overriding :meth:`PageStore.read` — the hottest
    inherited path stays exactly the parent's, and the liveness check
    costs nothing until the store actually dies.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "DurableStore"):
        super().__init__()
        self._store = store

    def _raise(self) -> Any:
        self._store._ensure_alive()
        raise StorageError("durable store page table poisoned")

    def __getitem__(self, key: Any) -> Any:
        return self._raise()

    def __setitem__(self, key: Any, value: Any) -> None:
        self._raise()

    def __delitem__(self, key: Any) -> None:
        self._raise()

    def __contains__(self, key: Any) -> bool:
        return self._raise()

    def __iter__(self) -> Any:
        return self._raise()

    def __len__(self) -> int:
        return self._raise()

    def get(self, key: Any, default: Any = None) -> Any:
        return self._raise()

    def items(self) -> Any:
        return self._raise()

    def keys(self) -> Any:
        return self._raise()

    def values(self) -> Any:
        return self._raise()


class DurableStore(PageStore):
    """A file-backed page store with WAL-based crash safety.

    Creates ``wal.log`` and (at the first checkpoint) ``pages.dat``
    inside ``directory``.  Refuses a directory that already holds either
    file — an existing store must be reopened through
    :func:`~repro.storage.durable.recovery.recover_store`, which is also
    the clean-shutdown reopen path (a cleanly closed store recovers from
    its final checkpoint with an empty WAL).

    ``sync="commit"`` (default) fsyncs the WAL at every commit marker;
    ``sync="os"`` leaves durability to the OS page cache — much faster,
    but a ``tail="drop_unsynced"`` crash loses everything unsynced.  The
    ``faults`` plan injects crash points; the default plan never fires.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        page_bytes: int = 4096,
        *,
        faults: FaultPlan | None = None,
        sync: str = "commit",
    ):
        self._setup(directory, page_bytes, faults, sync)
        for name in (WAL_NAME, PAGEFILE_NAME):
            if os.path.exists(os.path.join(self.directory, name)):
                raise StorageError(
                    f"{self.directory} already holds a durable store "
                    f"({name} exists); reopen it with "
                    f"repro.storage.durable.recover_store"
                )
        self._wal = WriteAheadLog(self.wal_path, self.faults)

    def _setup(
        self,
        directory: str | os.PathLike[str],
        page_bytes: int,
        faults: FaultPlan | None,
        sync: str,
    ) -> None:
        """The field setup both constructors share (no WAL yet)."""
        if sync not in _SYNC_MODES:
            raise StorageError(
                f"unknown sync mode {sync!r}; one of {_SYNC_MODES}"
            )
        self._wal: WriteAheadLog | None = None
        self._dead = False
        self._closed = False
        PageStore.__init__(self, page_bytes)
        self.directory = os.fspath(directory)
        self.faults = faults if faults is not None else FaultPlan()
        self.sync = sync
        self._meta: dict[str, Any] = {}
        self._txn = 1
        os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths and stats
    # ------------------------------------------------------------------

    def _live_wal(self) -> WriteAheadLog:
        """The WAL, which outlives ``__init__`` for the store's whole
        life; absence means the store was never fully constructed."""
        wal = self._wal
        if wal is None:
            raise StorageError("durable store has no WAL (mid-construction)")
        return wal

    @property
    def wal_path(self) -> str:
        """Path of the write-ahead log file."""
        return os.path.join(self.directory, WAL_NAME)

    @property
    def pagefile_path(self) -> str:
        """Path of the checkpointed page file."""
        return os.path.join(self.directory, PAGEFILE_NAME)

    @property
    def wal_stats(self) -> Any:
        """The WAL's counters (appends, commits, fsyncs, bytes)."""
        return self._live_wal().stats

    @property
    def wal_seq(self) -> int:
        """Sequence number of the most recent WAL record."""
        return self._live_wal().seq

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def _ensure_alive(self) -> None:
        # Call sites on the hot path guard with the two attribute reads
        # inline (``if self._dead or self._closed:``) so the live case
        # costs no function call; this raiser only runs when one is set.
        if self._dead:
            raise StorageError(
                f"durable store in {self.directory} died (crash or failed "
                f"commit); recover it with repro.storage.durable.recover_store"
            )
        if self._closed:
            raise StorageError(
                f"durable store in {self.directory} is closed"
            )

    def _mark_dead(self) -> None:
        """Mark the store dead and poison its page table (see above)."""
        self._dead = True
        self._pages = _DeadPageTable(self)

    @property
    def dead(self) -> bool:
        """True once a crash point fired or a commit failed."""
        return self._dead

    @property
    def closed(self) -> bool:
        """True once the store was cleanly closed."""
        return self._closed

    # ------------------------------------------------------------------
    # WAL transactions
    # ------------------------------------------------------------------

    def _commit(self, op_name: str, touched: dict[Any, int | None]) -> None:
        """Log a closed transaction's record as one WAL transaction."""
        # Each record is held back until the next is encoded, so the
        # last carries the commit marker and the operation name (every
        # payload is a JSON object, so splicing before the closing brace
        # is safe; "op" collides with no mutation-payload key).
        if not touched or self._dead or self._closed:
            return
        wal = self._live_wal()
        held: tuple[int, bytes] | None = None
        try:
            for record in self._records(touched):
                if held is not None:
                    wal.append_body(*held)
                held = record
            if held is None:
                return  # every touched page was rewritten unchanged
            rtype, body = held
            wal.append_body(
                rtype | REC_COMMIT_FLAG,
                body[:-1] + b',"op":"' + op_name.encode("ascii") + b'"}',
            )
            if self.sync == "commit":
                wal.sync()
            # sync="os" leaves even the flush to the buffered writer:
            # records reach the OS in ~8 KiB batches (and immediately on
            # sync, close, checkpoint or a simulated crash, which flush
            # first — so the fault model never sees the buffering).
            self._txn += 1
        except BaseException:
            # The log may now end in part of this transaction, which the
            # store cannot take back: it dies, as in a crash, and
            # recovery keeps the committed prefix.
            self._mark_dead()
            if not wal.closed:
                with suppress(OSError):
                    wal.close()
            raise

    def _records(
        self, touched: dict[Any, int | None]
    ) -> Iterator[tuple[int, bytes]]:
        """A transaction's records, each data page diffed against its
        pre-image."""
        txn = self._txn
        pages = self._pages
        preimages = self.preimages
        for page_id, size_class in touched.items():
            if type(page_id) is tuple:
                rtype, name = page_id
                payload = (
                    {"sc": name, "b": self._classes[name].page_bytes}
                    if rtype == REC_CLASS
                    else {"key": name, "v": self._meta[name]}
                )
                payload["x"] = txn
                yield rtype, codec.dumps(payload)
                continue
            content = pages.get(page_id, _FREED)
            if content is _FREED:
                if size_class is not None:
                    yield REC_ALLOC, _image(txn, page_id, None, size_class)
                yield REC_FREE, codec.dumps({"id": page_id, "x": txn})
                continue
            base = preimages.get(page_id)
            if isinstance(content, DataPage) and type(base) is type(content):
                # Log the change, not the page: O(records touched)
                # instead of O(page).  An unchanged page logs nothing,
                # which replay cannot distinguish anyway.
                added, removed = content.changes_since(base)
                if added or removed:
                    yield REC_WRITE, codec.encode_delta_body(
                        page_id, txn, added, removed
                    )
                continue
            yield (
                REC_WRITE if size_class is None else REC_ALLOC,
                _image(txn, page_id, content, size_class),
            )

    # ------------------------------------------------------------------
    # Storage protocol: mutations gain a WAL shadow
    # ------------------------------------------------------------------

    def allocate(self, content: Any = None, size_class: int = 0) -> int:
        if self._dead or self._closed:
            self._ensure_alive()
        return super().allocate(content, size_class)

    def write(self, page_id: int, content: Any) -> None:
        if self._dead or self._closed:
            self._ensure_alive()
        super().write(page_id, content)

    def free(self, page_id: int) -> None:
        if self._dead or self._closed:
            self._ensure_alive()
        super().free(page_id)

    def register_size_class(self, size_class: int, page_bytes: int) -> None:
        self._ensure_alive()
        existing = self._classes.get(size_class)
        prior = None if existing is None else existing.page_bytes
        super().register_size_class(size_class, page_bytes)
        if prior != page_bytes:
            self._touch((REC_CLASS, size_class), prior)  # kept for _abort

    def _abort(self, touched: dict[Any, int | None]) -> None:
        """Also put back the size classes the transaction registered."""
        super()._abort(touched)
        classes = self._classes
        for key, prior in touched.items():
            if type(key) is tuple and key[0] == REC_CLASS:
                if prior is None:
                    del classes[key[1]]
                else:
                    classes[key[1]].page_bytes = prior

    # ``read`` is deliberately *not* overridden: a dead or closed store
    # swaps ``self._pages`` for a :class:`_DeadPageTable`, so the
    # inherited hot path raises on its first table access.

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------

    @property
    def meta(self) -> dict[str, Any]:
        """Durable application metadata (read-only view; use set_meta)."""
        return dict(self._meta)

    def set_meta(self, key: str, value: Any) -> None:
        """Store one durable metadata entry (JSON-representable value)."""
        self._ensure_alive()
        self._meta[key] = value
        self._touch((REC_META, key))

    # ------------------------------------------------------------------
    # Checkpointing and shutdown
    # ------------------------------------------------------------------

    def _state(self) -> StoreState:
        wal = self._wal
        return StoreState(
            page_bytes=self.page_bytes,
            next_id=self._next_id,
            wal_seq=wal.seq if wal is not None else 0,
            meta=dict(self._meta),
            classes={
                sc: stats.page_bytes for sc, stats in self._classes.items()
            },
            pages={
                pid: (self._size_class[pid], content)
                for pid, content in self._pages.items()
            },
        )

    def checkpoint(self) -> None:
        """Compact the WAL into a fresh page file (crash-atomic).

        Writes the complete image to a temporary file, installs it with
        an atomic rename, fsyncs the directory, then truncates the WAL.
        A crash anywhere in between leaves a recoverable pair of files:
        the header's WAL floor makes replay over either image correct.
        """
        self._ensure_alive()
        wal = self._live_wal()
        tmp_path = os.path.join(self.directory, TMP_PAGEFILE_NAME)
        state = self._state()
        try:
            dump_state(tmp_path, state, faults=self.faults)
        except SimulatedCrashError:
            self._die_with_wal()
            raise
        os.replace(tmp_path, self.pagefile_path)
        fsync_dir(self.directory)
        if self.faults.note_checkpoint("before_truncate"):
            self._die_with_wal()
            raise SimulatedCrashError(
                f"simulated crash after installing checkpoint in "
                f"{self.directory}: {self.faults.describe()}"
            )
        wal.reset()
        tracer = self.tracer
        if tracer.structural:
            tracer.emit(
                CHECKPOINT,
                pages=len(self._pages),
                wal_seq=state.wal_seq,
                bytes=self.live_bytes(),
            )

    def _die_with_wal(self) -> None:
        """A non-WAL crash point fired: tear the WAL too, mark dead."""
        self._mark_dead()
        if self._wal is not None and not self._wal.closed:
            try:
                self._wal.crash()
            except SimulatedCrashError:
                pass  # the caller raises its own crash error

    def close(self, checkpoint: bool = True) -> None:
        """Checkpoint (by default) and close the files (idempotent).

        ``checkpoint=False`` skips compaction, leaving the WAL as the
        only record of work since the previous checkpoint — the state a
        long-running process is in most of the time, and the interesting
        starting point for recovery tests.
        """
        if self._dead or self._closed:
            return
        if checkpoint:
            self.checkpoint()
        self._live_wal().close()
        self._closed = True
        self._pages = _DeadPageTable(self)

    # ------------------------------------------------------------------
    # Recovery back door
    # ------------------------------------------------------------------

    @classmethod
    def _from_state(
        cls,
        directory: str | os.PathLike[str],
        state: StoreState,
        *,
        faults: FaultPlan | None = None,
        sync: str = "commit",
        start_seq: int = 0,
    ) -> "DurableStore":
        """Materialise a store from recovered state (recovery use only).

        Writes the checkpoint *first*, then opens a fresh WAL — a crash
        between the two leaves the old WAL beside the new image, whose
        floor makes the stale records inert.
        """
        store = cls.__new__(cls)
        store._setup(directory, state.page_bytes, faults, sync)
        store._meta = dict(state.meta)
        for size_class, page_bytes in sorted(state.classes.items()):
            PageStore.register_size_class(store, size_class, page_bytes)
        for page_id, (size_class, content) in state.pages.items():
            store._pages[page_id] = content
            store._size_class[page_id] = size_class
            stats = store._class_stats(size_class)
            stats.live_pages += 1
            stats.total_allocated += 1
            stats.peak_pages = max(stats.peak_pages, stats.live_pages)
        store._next_id = max(
            state.next_id, max(state.pages, default=0) + 1
        )
        state = store._state()
        state.wal_seq = start_seq
        tmp_path = os.path.join(store.directory, TMP_PAGEFILE_NAME)
        dump_state(tmp_path, state)
        os.replace(tmp_path, store.pagefile_path)
        fsync_dir(store.directory)
        store._wal = WriteAheadLog(
            store.wal_path, store.faults, start_seq=start_seq
        )
        return store
