"""Unit tests for the LRU buffer pool."""

import pytest

from repro.concurrency import TreeService
from repro.core.tree import BVTree
from repro.errors import StorageError
from repro.geometry.space import DataSpace
from repro.storage.buffer import BufferPool
from repro.storage.durable.store import DurableStore
from repro.storage.faults import FaultPlan
from repro.storage.pager import PageStore


class _Page:
    def clone(self):
        return _Page()


@pytest.fixture
def pool():
    store = PageStore()
    return BufferPool(store, capacity=3)


class TestReadThrough:
    def test_miss_then_hit(self, pool):
        page = pool.store.allocate("x")
        assert pool.read(page) == "x"
        assert pool.read(page) == "x"
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_physical_reads_only_on_miss(self, pool):
        page = pool.store.allocate("x")
        for _ in range(5):
            pool.read(page)
        assert pool.store.stats.reads == 1

    def test_hit_ratio(self, pool):
        page = pool.store.allocate("x")
        pool.read(page)
        pool.read(page)
        pool.read(page)
        assert pool.stats.hit_ratio == pytest.approx(2 / 3)
        assert pool.stats.reads == 3

    def test_hit_ratio_empty(self, pool):
        assert pool.stats.hit_ratio == 0.0


class TestEviction:
    def test_lru_eviction_order(self, pool):
        pages = [pool.store.allocate(i) for i in range(4)]
        for p in pages[:3]:
            pool.read(p)
        pool.read(pages[0])  # freshen page 0
        pool.read(pages[3])  # evicts page 1, the least recent
        assert pool.resident(pages[0])
        assert not pool.resident(pages[1])
        assert pool.resident(pages[2])
        assert pool.resident(pages[3])
        assert pool.stats.evictions == 1

    def test_capacity_respected(self, pool):
        for i in range(10):
            pool.read(pool.store.allocate(i))
        assert len(pool) == 3

    def test_rejects_bad_capacity(self):
        with pytest.raises(StorageError):
            BufferPool(PageStore(), capacity=0)


class TestWriteThrough:
    def test_write_updates_store_and_cache(self, pool):
        page = pool.store.allocate("x")
        pool.write(page, "y")
        assert pool.store.read(page) == "y"
        assert pool.read(page) == "y"
        assert pool.stats.misses == 0  # cached by the write

    def test_counts_writes_like_the_store(self, pool):
        """Every write-through is one pool write and one store write,
        and a failed read counts nowhere."""
        page = pool.store.allocate("x")
        pool.write(page, "y")
        pool.write(page, "z")
        assert pool.stats.writes == pool.store.stats.writes == 2
        with pytest.raises(StorageError):
            pool.read(page + 1)
        assert pool.stats.reads == pool.store.stats.reads == 0

    def test_forwards_the_transaction_record(self, pool):
        page = pool.store.allocate("x")
        with pool.transaction("insert"):
            pool.write(page, "y")
            new = pool.allocate("z")
        assert pool.touched is pool.store.touched
        assert pool.touched == {page: None, new: 0}

    def test_writable_counts_as_a_read_and_caches_the_copy(self, pool):
        page = pool.store.allocate(_Page())
        committed = pool.read(page)
        with pool.transaction("insert"):
            private = pool.writable(page)
            assert private is not committed
            assert pool.writable(page) is private
            assert pool.read(page) is private
            assert pool.store.peek(page) is private
            pool.write(page, private)
        assert (pool.stats.reads, pool.stats.hits) == (4, 3)
        assert pool.store.stats.reads == 1

    def test_invalidate(self, pool):
        page = pool.store.allocate("x")
        pool.read(page)
        pool.store.free(page)
        pool.invalidate(page)
        assert not pool.resident(page)

    def test_invalidate_counts_only_resident_pages(self, pool):
        page = pool.store.allocate("x")
        pool.read(page)
        pool.invalidate(page)
        assert pool.stats.invalidations == 1
        # The page is no longer cached: further calls are no-ops and
        # must not inflate the counter.
        pool.invalidate(page)
        pool.invalidate(12345)
        assert pool.stats.invalidations == 1

    def test_invalidate_counts_cached_none_payload(self, pool):
        page = pool.allocate(None)  # cached by allocation, content None
        pool.invalidate(page)
        assert pool.stats.invalidations == 1


class TestPeek:
    def test_peek_serves_cache_without_counting(self, pool):
        page = pool.store.allocate("x")
        pool.read(page)
        hits, misses = pool.stats.hits, pool.stats.misses
        assert pool.peek(page) == "x"
        assert (pool.stats.hits, pool.stats.misses) == (hits, misses)

    def test_peek_miss_does_not_install_or_count(self, pool):
        page = pool.store.allocate("x")
        physical = pool.store.stats.reads
        assert pool.peek(page) == "x"
        assert not pool.resident(page)
        assert pool.store.stats.reads == physical
        assert pool.stats.misses == 0

    def test_peek_does_not_refresh_recency(self, pool):
        pages = [pool.store.allocate(i) for i in range(4)]
        for p in pages[:3]:
            pool.read(p)
        pool.peek(pages[0])  # must NOT freshen page 0
        pool.read(pages[3])  # evicts page 0, still the least recent
        assert not pool.resident(pages[0])
        assert pool.resident(pages[1])

    def test_peek_distinguishes_cached_none(self, pool):
        page = pool.allocate(None)
        store_reads = pool.store.stats.reads
        assert pool.peek(page) is None
        assert pool.store.stats.reads == store_reads

    def test_clear(self, pool):
        page = pool.store.allocate("x")
        pool.read(page)
        pool.clear()
        assert len(pool) == 0
        pool.read(page)
        assert pool.stats.misses == 2


class TestDeadStore:
    def test_forwards_dead_so_the_service_reads_poisoned(self, tmp_path):
        store = DurableStore(
            tmp_path, faults=FaultPlan(crash_after_appends=8), sync="os"
        )
        pool = BufferPool(store)
        tree = BVTree(
            DataSpace.unit(2, resolution=8),
            store=pool,
            data_capacity=4,
            fanout=4,
        )
        service = TreeService(tree)
        assert not service.poisoned
        with pytest.raises(StorageError):
            for i in range(64):
                service.insert((i / 64 + 1 / 128, 0.5), i)
        assert store.dead
        assert service.poisoned
        assert pool.dead
        with pytest.raises(StorageError):
            service.insert((0.5, 0.25), "after")

    def test_a_plain_store_is_never_dead(self, pool):
        assert pool.dead is False
