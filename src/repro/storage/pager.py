"""The page store: allocation, access and accounting of pages."""

from __future__ import annotations

from types import TracebackType
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

    Transactions: ``with store.transaction(name):`` groups the mutations
    of one tree operation.  The store is its own context, so opening one
    allocates nothing.  :attr:`touched` records what the outermost open
    transaction allocated, wrote or freed, in first-touch order; it
    keeps the last closed transaction's record until the next outermost
    one opens.  Leaving the outermost transaction normally hands that
    record to :meth:`_commit` under the transaction's name (a no-op in
    memory; the durable store logs it); leaving it by an exception
    aborts it (:meth:`_abort`).  A mutation outside any transaction is
    a transaction of its own, named ``"auto"``.

    Copy on first write: a transaction changes an existing page through
    :meth:`writable`, so a page object a committed transaction left in
    the store never changes again and published versions can share it.
    The first touch of an existing page (``writable``, ``write`` or
    ``free``) records its object in :attr:`preimages` until the
    transaction closes; :meth:`write` refuses a recorded pre-image.
    Outside a transaction only ``writable`` records one, so a write may
    hand back the object it read (the baselines do).
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
        #: Touched key -> its size class if the transaction allocated
        #: it, else ``None``.  Keys are page ids; a subclass may note
        #: other changes under tuple keys (the durable store's size
        #: classes, mapped to their prior bytes, and metadata).
        self.touched: dict[Any, int | None] = {}
        #: Page id -> its last committed object, for each existing
        #: page the open transaction touched.
        self.preimages: dict[int, Any] = {}
        #: Page id -> size class, for each existing page it freed.
        self._freed: dict[int, int] = {}
        self._depth = 0
        self._op = "auto"
        self._mark = 1  # _next_id when the transaction opened

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
        self._touch(page_id, size_class)
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

    def writable(self, page_id: int) -> Any:
        """A page's content to change, counted exactly as :meth:`read`.

        Installs and returns a ``clone()`` of a page that is not yet
        private (see the class docstring); a page the open transaction
        allocated or already made private comes back as it is.
        """
        return self._own(page_id, self.read(page_id))

    def _own(self, page_id: int, content: Any) -> Any:
        """``content``, the page's object, made private (:meth:`writable`)."""
        preimages = self.preimages
        if page_id in preimages or (
            self._depth and self.touched.get(page_id) is not None
        ):
            return content
        preimages[page_id] = content
        private = content.clone()
        self._pages[page_id] = private
        return private

    def peek(self, page_id: int) -> Any:
        """Read a page's content without counting a page read."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(f"page {page_id} is not allocated") from None

    def write(self, page_id: int, content: Any) -> None:
        """Overwrite a page's content (counted as one page write);
        :class:`StorageError` if ``content`` is its pre-image."""
        pages = self._pages
        if page_id not in pages:
            raise PageNotFoundError(f"page {page_id} is not allocated")
        preimages = self.preimages
        if self._depth and self.touched.get(page_id) is None:
            preimages.setdefault(page_id, pages[page_id])
        if content is preimages.get(page_id):
            raise StorageError(
                f"page {page_id} changed in place, not through writable()"
            )
        pages[page_id] = content
        self.stats.writes += 1
        tracer = self.tracer
        if tracer.structural:
            tracer.emit(PAGE_WRITE, page=page_id)
        self._touch(page_id)

    def free(self, page_id: int) -> None:
        """Release a page."""
        pages = self._pages
        if page_id not in pages:
            raise PageNotFoundError(f"page {page_id} is not allocated")
        size_class = self._size_class.pop(page_id)
        if self._depth and self.touched.get(page_id) is None:
            self.preimages.setdefault(page_id, pages[page_id])
            self._freed[page_id] = size_class
        del pages[page_id]
        self._classes[size_class].live_pages -= 1
        self.stats.frees += 1
        tracer = self.tracer
        if tracer.structural:
            tracer.emit(PAGE_FREE, page=page_id)
        self._touch(page_id)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self, name: str) -> "PageStore":
        """A context grouping its mutations into one transaction named
        ``name`` (see the class docstring); nested ones join it."""
        if not self._depth:
            self._op = name
        return self

    def __enter__(self) -> None:
        if not self._depth:
            self.touched.clear()
            self._mark = self._next_id
        self._depth += 1

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._depth -= 1
        if self._depth:
            return
        if exc_type is None:
            self._commit(self._op, self.touched)
        else:
            self._abort(self.touched)
        self.preimages.clear()
        self._freed.clear()

    def _touch(self, key: Any, size_class: int | None = None) -> None:
        """Note that the open transaction touched ``key`` (with its size
        class if it allocated the page); outside one, commit it alone."""
        touched = self.touched
        if self._depth:
            if key not in touched:
                touched[key] = size_class
            return
        touched.clear()
        touched[key] = size_class
        self._commit("auto", touched)
        self.preimages.pop(key, None)

    def _commit(self, op_name: str, touched: dict[Any, int | None]) -> None:
        """Make a closed transaction's record durable: nothing to do in
        memory.  An aborted transaction never reaches here."""

    def _abort(self, touched: dict[Any, int | None]) -> None:
        """Put the store back as the transaction found it (the I/O
        counters keep its work): drop the pages it allocated, reinstall
        every pre-image and rewind the allocation cursor."""
        pages, size_of, classes = self._pages, self._size_class, self._classes
        for page_id, size_class in touched.items():
            if size_class is not None and page_id in size_of:
                del pages[page_id], size_of[page_id]
                classes[size_class].live_pages -= 1
        for page_id, size_class in self._freed.items():
            size_of[page_id] = size_class
            classes[size_class].live_pages += 1
        pages.update(self.preimages)
        self._next_id = self._mark

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
