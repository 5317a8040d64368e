"""An LRU buffer pool layered over a :class:`PageStore`."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterator

from repro.errors import StorageError
from repro.obs.events import PAGE_READ
from repro.obs.tracer import Tracer
from repro.storage.pager import PageStore
from repro.storage.stats import BufferStats, SizeClassStats

#: Distinguishes "page not cached" from a cached ``None`` payload.
_ABSENT = object()


class BufferPool:
    """Read-through, write-through LRU cache of pages.

    The pool distinguishes *logical* reads (every :meth:`read` call) from
    *physical* reads (cache misses that hit the underlying store).  All
    writes go straight to the store so the store content is always
    authoritative; the cached copy is refreshed at the same time.

    The pool exposes the full :class:`PageStore` surface (allocation,
    freeing, size classes, accounting), so it can be passed anywhere a
    store is expected — e.g. ``BVTree(space, store=BufferPool(PageStore()))``
    to measure an index's cache behaviour.

    Tracing: the pool *shares* its store's tracer (the ``tracer``
    property delegates), and every logical read emits exactly one
    ``page_read`` event — a hit emits ``physical=False`` from the pool,
    a miss is covered by the single ``physical=True`` event the store's
    fault-in read emits.  Counting a trace's ``physical=True`` events
    therefore reproduces the store's ``IOStats.reads`` exactly, and the
    total ``page_read`` count reproduces ``BufferStats.logical_reads``
    (the integration tests assert both equalities).

    Thread safety: by default the pool is single-caller, like every
    store — the hit path is two dict operations plus two counter
    increments, and a mutex there would tax every buffered read of a
    single-threaded index.  Pass ``thread_safe=True`` when the pool is
    shared by concurrent readers (``cache.move_to_end`` racing an
    eviction corrupts the ``OrderedDict``; the stats counters lose
    increments): the cache and counter mutations then run under an
    internal lock.  Served trees do not need this — snapshot readers
    never touch the live store (see ``docs/SERVING.md``) — it exists for
    direct shared-tree readers, e.g. the reader-hammer regression test.
    """

    def __init__(
        self,
        store: PageStore,
        capacity: int = 64,
        *,
        thread_safe: bool = False,
    ):
        if capacity <= 0:
            raise StorageError(f"buffer capacity must be positive, got {capacity}")
        self.store = store
        self.capacity = capacity
        self.stats = BufferStats()
        self._cache: OrderedDict[int, Any] = OrderedDict()
        # None in the default single-caller mode: the hot read path
        # branches on it rather than entering a no-op context manager,
        # whose __enter__/__exit__ calls would more than double the cost
        # of a cache hit (measured; the hit path is ~190ns of dict work).
        self._lock: threading.Lock | None = (
            threading.Lock() if thread_safe else None
        )

    # ------------------------------------------------------------------
    # PageStore surface (decorator passthrough)
    # ------------------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        """The shared tracer (one stream for pool and store events)."""
        return self.store.tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        self.store.tracer = tracer

    @property
    def page_bytes(self) -> int:
        """Base page size of the underlying store."""
        return self.store.page_bytes

    def allocate(self, content: Any = None, size_class: int = 0) -> int:
        """Allocate in the store; the fresh page starts out cached."""
        page_id = self.store.allocate(content, size_class=size_class)
        self._install_locked(page_id, content)
        return page_id

    def free(self, page_id: int) -> None:
        """Free in the store and drop any cached copy."""
        self.store.free(page_id)
        lock = self._lock
        if lock is None:
            self._cache.pop(page_id, None)
        else:
            with lock:
                self._cache.pop(page_id, None)

    def register_size_class(self, size_class: int, page_bytes: int) -> None:
        """Pass through to the store."""
        self.store.register_size_class(size_class, page_bytes)

    def size_class_of(self, page_id: int) -> int:
        """Pass through to the store."""
        return self.store.size_class_of(page_id)

    def page_ids(self) -> Iterator[int]:
        """Pass through to the store."""
        return self.store.page_ids()

    def live_pages(self, size_class: int | None = None) -> int:
        """Pass through to the store."""
        return self.store.live_pages(size_class)

    def live_bytes(self) -> int:
        """Pass through to the store."""
        return self.store.live_bytes()

    def class_stats(self) -> dict[int, SizeClassStats]:
        """Pass through to the store."""
        return self.store.class_stats()

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.store

    def read(self, page_id: int) -> Any:
        """Read a page, from cache if resident.

        The hit path is deliberately lean — one dict probe plus the LRU
        touch — because every page access of a buffered index funnels
        through here.
        """
        lock = self._lock
        if lock is not None:
            with lock:
                return self._read_inner(page_id)
        return self._read_inner(page_id)

    def _read_inner(self, page_id: int) -> Any:
        cache = self._cache
        content = cache.get(page_id, _ABSENT)
        if content is not _ABSENT:
            cache.move_to_end(page_id)
            self.stats.hits += 1
            tracer = self.store.tracer
            if tracer.enabled:
                tracer.emit(PAGE_READ, page=page_id, physical=False)
            return content
        # The fault-in read below emits the miss's single page_read event
        # (physical=True) from the store — the pool must not emit its own
        # logical event here, or one miss would be traced twice and the
        # trace-derived counts would drift from IOStats.reads.
        content = self.store.read(page_id)
        self.stats.misses += 1
        self._install(page_id, content)
        return content

    def peek(self, page_id: int) -> Any:
        """Read a page without touching hit/miss counters or LRU order.

        Serves from the cache when resident (no recency update), and
        otherwise peeks the underlying store without installing the page.
        Lock-free even in thread-safe mode: the single dict probe is
        atomic under the GIL, and peek mutates nothing.
        """
        content = self._cache.get(page_id, _ABSENT)
        if content is not _ABSENT:
            return content
        return self.store.peek(page_id)

    def write(self, page_id: int, content: Any) -> None:
        """Write a page through to the store and refresh the cache."""
        self.store.write(page_id, content)
        self._install_locked(page_id, content)

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the cache (e.g. after it is freed).

        Only an invalidation that actually dropped a cached copy is
        counted; a no-op call for a page that was never resident leaves
        the counters untouched.
        """
        lock = self._lock
        if lock is None:
            dropped = self._cache.pop(page_id, _ABSENT) is not _ABSENT
        else:
            with lock:
                dropped = self._cache.pop(page_id, _ABSENT) is not _ABSENT
        if dropped:
            self.stats.invalidations += 1

    def clear(self) -> None:
        """Empty the cache without touching the store."""
        lock = self._lock
        if lock is None:
            self._cache.clear()
        else:
            with lock:
                self._cache.clear()

    def resident(self, page_id: int) -> bool:
        """True if the page is currently cached."""
        return page_id in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    def _install(self, page_id: int, content: Any) -> None:
        self._cache[page_id] = content
        self._cache.move_to_end(page_id)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
            self.stats.evictions += 1

    def _install_locked(self, page_id: int, content: Any) -> None:
        lock = self._lock
        if lock is None:
            self._install(page_id, content)
        else:
            with lock:
                self._install(page_id, content)
