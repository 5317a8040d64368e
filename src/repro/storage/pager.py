"""The page store: allocation, access and accounting of pages."""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import PageNotFoundError, StorageError
from repro.obs.events import PAGE_ALLOC, PAGE_FREE, PAGE_READ, PAGE_WRITE
from repro.obs.tracer import Tracer
from repro.storage.stats import IOStats, SizeClassStats


class PageStore:
    """A simulated page-based store with exact I/O accounting.

    Pages belong to *size classes* so that structures with level-scaled
    index pages (paper §7.3) can account for their true byte footprint.
    Size class ``k`` has ``page_bytes * (k + 1)`` bytes by default, matching
    the paper's "every page at index level x is of size B·x"; callers may
    instead register explicit byte sizes with :meth:`register_size_class`.

    Every counted access also emits a ``page_read``/``page_write`` trace
    event through ``self.tracer`` when tracing is enabled — one event per
    counted I/O, so a trace's page counts always equal :class:`IOStats`
    (a tree installs its own tracer here; see
    :class:`~repro.core.tree.BVTree`).  The *mutating* accesses
    (``allocate``/``write``/``free``) are the choke point every tree
    structure change flows through, so they emit under the wider
    ``tracer.structural`` guard — an update-path subscriber (e.g. the
    guarantee monitor) sees every mutation, while reads stay silent
    unless a subscriber takes a read-path kind (``tracer.enabled``).
    """

    def __init__(self, page_bytes: int = 4096):
        if page_bytes <= 0:
            raise StorageError(f"page size must be positive, got {page_bytes}")
        self.page_bytes = page_bytes
        self.stats = IOStats()
        #: Shared with the owning tree (and any buffer pool in front).
        self.tracer = Tracer()
        self._pages: dict[int, Any] = {}
        self._size_class: dict[int, int] = {}
        self._classes: dict[int, SizeClassStats] = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    # Size classes
    # ------------------------------------------------------------------

    def register_size_class(self, size_class: int, page_bytes: int) -> None:
        """Declare the byte size of a size class explicitly."""
        if size_class < 0:
            raise StorageError(f"negative size class {size_class}")
        if page_bytes <= 0:
            raise StorageError(f"page size must be positive, got {page_bytes}")
        existing = self._classes.get(size_class)
        if existing is None:
            self._classes[size_class] = SizeClassStats(page_bytes=page_bytes)
        elif existing.live_pages and existing.page_bytes != page_bytes:
            raise StorageError(
                f"size class {size_class} already has live pages of "
                f"{existing.page_bytes} bytes"
            )
        else:
            existing.page_bytes = page_bytes

    def _class_stats(self, size_class: int) -> SizeClassStats:
        stats = self._classes.get(size_class)
        if stats is None:
            stats = SizeClassStats(page_bytes=self.page_bytes * (size_class + 1))
            self._classes[size_class] = stats
        return stats

    # ------------------------------------------------------------------
    # Page lifecycle
    # ------------------------------------------------------------------

    def allocate(self, content: Any = None, size_class: int = 0) -> int:
        """Allocate a new page, optionally with initial content."""
        if size_class < 0:
            raise StorageError(f"negative size class {size_class}")
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = content
        self._size_class[page_id] = size_class
        cls = self._class_stats(size_class)
        cls.live_pages += 1
        cls.total_allocated += 1
        cls.peak_pages = max(cls.peak_pages, cls.live_pages)
        self.stats.allocations += 1
        tracer = self.tracer
        if tracer.structural:
            tracer.emit(PAGE_ALLOC, page=page_id, size_class=size_class)
        return page_id

    def read(self, page_id: int) -> Any:
        """Read a page's content (counted as one page read)."""
        try:
            content = self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(f"page {page_id} is not allocated") from None
        self.stats.reads += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(PAGE_READ, page=page_id, physical=True)
        return content

    def peek(self, page_id: int) -> Any:
        """Read a page's content without counting a page read."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(f"page {page_id} is not allocated") from None

    def write(self, page_id: int, content: Any) -> None:
        """Overwrite a page's content (counted as one page write)."""
        if page_id not in self._pages:
            raise PageNotFoundError(f"page {page_id} is not allocated")
        self._pages[page_id] = content
        self.stats.writes += 1
        tracer = self.tracer
        if tracer.structural:
            tracer.emit(PAGE_WRITE, page=page_id)

    def free(self, page_id: int) -> None:
        """Release a page."""
        if page_id not in self._pages:
            raise PageNotFoundError(f"page {page_id} is not allocated")
        del self._pages[page_id]
        size_class = self._size_class.pop(page_id)
        self._classes[size_class].live_pages -= 1
        self.stats.frees += 1
        tracer = self.tracer
        if tracer.structural:
            tracer.emit(PAGE_FREE, page=page_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def size_class_of(self, page_id: int) -> int:
        """The size class a live page was allocated in."""
        try:
            return self._size_class[page_id]
        except KeyError:
            raise PageNotFoundError(f"page {page_id} is not allocated") from None

    def page_ids(self) -> Iterator[int]:
        """Iterate over the ids of all live pages."""
        return iter(tuple(self._pages))

    def live_pages(self, size_class: int | None = None) -> int:
        """Number of live pages, optionally restricted to one size class."""
        if size_class is None:
            return len(self._pages)
        stats = self._classes.get(size_class)
        return stats.live_pages if stats else 0

    def live_bytes(self) -> int:
        """Total bytes occupied by live pages across all size classes."""
        return sum(cls.live_bytes for cls in self._classes.values())

    def class_stats(self) -> dict[int, SizeClassStats]:
        """Per-size-class accounting (live view, do not mutate)."""
        return dict(self._classes)
