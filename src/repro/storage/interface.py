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

from typing import Any, Iterator, Protocol, runtime_checkable

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

    def peek(self, page_id: int) -> Any:
        """Read a page's content without touching any I/O counters.

        For maintenance traversals (teardown, diagnostics) that must not
        pollute the accounting the benchmarks read; never use it on a
        path whose cost is part of a measured claim.
        """

    def write(self, page_id: int, content: Any) -> None:
        """Overwrite a page's content (accounted)."""

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


def default_store(page_bytes: int = 4096) -> Storage:
    """The default backing store for a new index: an in-memory page
    store.

    Kept as a factory (rather than letting core construct a store
    itself) so the default backend can change — e.g. to a buffer-pooled
    or sharded store — in exactly one place.
    """
    from repro.storage.pager import PageStore

    return PageStore(page_bytes)
