"""The storage protocol: the surface index structures program against.

:class:`Storage` is the structural type shared by
:class:`~repro.storage.pager.PageStore` and
:class:`~repro.storage.buffer.BufferPool` (and any future backend —
sharded, async-fronted, on-disk).  The index algorithms in
:mod:`repro.core` depend only on this protocol, never on a concrete
backend, so a tree can be measured through a buffer pool or run over a
different engine without touching core code; lint rule R3 enforces the
direction of that dependency.

:func:`default_store` is the sanctioned way for the core layer to obtain
a backing store when the caller did not supply one.
"""

from __future__ import annotations

from typing import Any, ContextManager, Iterator, Protocol, runtime_checkable

from repro.obs.tracer import Tracer
from repro.storage.stats import SizeClassStats


@runtime_checkable
class Storage(Protocol):
    """Paged storage: allocation, access and accounting of pages."""

    #: The tracer counted accesses emit through (settable: a tree shares
    #: its own tracer with its store so page events join one stream).
    tracer: Tracer

    @property
    def page_bytes(self) -> int:
        """Base page size in bytes (size class 0)."""

    def allocate(self, content: Any = None, size_class: int = 0) -> int:
        """Allocate a new page, returning its id."""

    def read(self, page_id: int) -> Any:
        """Read a page's content (accounted)."""

    def writable(self, page_id: int) -> Any:
        """Read a page's content to change it (accounted as a read): a
        private ``clone()`` of a page the open transaction has not yet
        made private or allocated, so committed page objects never
        change and published versions may share them."""

    def peek(self, page_id: int) -> Any:
        """Read a page's content without touching any I/O counters.

        For maintenance traversals (teardown, diagnostics) that must not
        pollute the accounting the benchmarks read; never use it on a
        path whose cost is part of a measured claim.
        """

    def write(self, page_id: int, content: Any) -> None:
        """Overwrite a page's content (accounted); a page's recorded
        pre-image is refused (:class:`~repro.errors.StorageError`)."""

    def free(self, page_id: int) -> None:
        """Release a page."""

    def register_size_class(self, size_class: int, page_bytes: int) -> None:
        """Declare the byte size of a size class."""

    def size_class_of(self, page_id: int) -> int:
        """The size class a live page was allocated in."""

    def page_ids(self) -> Iterator[int]:
        """Iterate the ids of all live pages."""

    def live_pages(self, size_class: int | None = None) -> int:
        """Number of live pages, optionally for one size class."""

    def live_bytes(self) -> int:
        """Total bytes occupied by live pages."""

    def class_stats(self) -> dict[int, SizeClassStats]:
        """Per-size-class accounting."""

    def __contains__(self, page_id: int) -> bool:
        """Whether a page id is currently allocated."""

    def transaction(self, name: str) -> ContextManager[Any]:
        """A context spanning one tree operation's mutations.

        ``BVTree.insert``/``delete``/``bulk_load`` open one around their
        work (through ``BVTree.transaction``); mutations inside the
        outermost one join it, and a mutation outside any is a
        transaction of its own.  The page store keeps the transaction
        (a wrapping store forwards it): it records the touched pages in
        :attr:`touched` and, on a normal exit from the outermost one,
        commits them under ``name``.  In memory the commit does
        nothing; the durable store logs the record as one WAL
        transaction.  A transaction left by an exception aborts: it
        commits nothing and puts every page back as it found it.
        """

    @property
    def touched(self) -> dict[Any, int | None]:
        """The page ids the open (or else the last) outermost
        transaction allocated, wrote or freed, in first-touch order.

        A page the transaction allocated maps to its size class, any
        other to ``None``; the durable store adds its size-class and
        metadata changes under tuple keys.  Cleared when the next
        outermost transaction opens, so read it right after the
        operation it describes; the serving layer
        (:class:`~repro.concurrency.TreeService`) does, to put exactly
        those pages into the next published version.
        """

    @property
    def preimages(self) -> dict[int, Any]:
        """Page id -> its last committed object, for each existing page
        the open transaction touched (emptied when it closes): the
        durable store's delta base, and what an abort reinstalls."""


def default_store(page_bytes: int = 4096) -> Storage:
    """The default backing store for a new index: an in-memory page
    store.

    Kept as a factory (rather than letting core construct a store
    itself) so the default backend can change — e.g. to a buffer-pooled
    or sharded store — in exactly one place.
    """
    from repro.storage.pager import PageStore

    return PageStore(page_bytes)
