"""I/O counter bundles for the storage simulator."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOStats:
    """Mutable counters of page-level operations.

    ``reads``/``writes`` count every access through a :class:`PageStore`;
    a :class:`~repro.storage.buffer.BufferPool` counts the accesses made
    through it under the same names (:class:`BufferStats`), so the
    store's ``reads`` under a pool are the pool's misses.
    """

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.frees = 0

    def snapshot(self) -> "IOStats":
        """An independent copy of the current counter values."""
        return IOStats(self.reads, self.writes, self.allocations, self.frees)

    def delta(self, since: "IOStats") -> "IOStats":
        """Counters accumulated since an earlier :meth:`snapshot`."""
        return IOStats(
            self.reads - since.reads,
            self.writes - since.writes,
            self.allocations - since.allocations,
            self.frees - since.frees,
        )

    @property
    def total(self) -> int:
        """All page operations combined."""
        return self.reads + self.writes + self.allocations + self.frees


@dataclass
class BufferStats:
    """Access, hit and eviction counters for a buffer pool.

    ``reads``/``writes`` carry :class:`IOStats`' meaning: every access
    made through the pool.  ``hits`` is the share of ``reads`` served
    from the cache; the rest are :attr:`misses`, each one a read of the
    underlying store.
    """

    reads: int = 0
    writes: int = 0
    hits: int = 0
    evictions: int = 0
    invalidations: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = 0
        self.writes = 0
        self.hits = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def misses(self) -> int:
        """Reads that went to the store."""
        return self.reads - self.hits

    @property
    def hit_ratio(self) -> float:
        """Fraction of reads served from the cache (0 if none)."""
        return self.hits / self.reads if self.reads else 0.0


@dataclass
class SizeClassStats:
    """Live-page accounting for one page size class."""

    page_bytes: int
    live_pages: int = 0
    peak_pages: int = 0
    total_allocated: int = 0

    @property
    def live_bytes(self) -> int:
        """Bytes currently occupied by live pages of this class."""
        return self.page_bytes * self.live_pages
