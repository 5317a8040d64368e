"""A store transaction left by an exception aborts and leaves no trace.

The page store drops what the transaction allocated, reinstalls every
pre-image (a freed page with its size class, a page made private but
never written) and rewinds its allocation cursor; the durable store
also puts back the size classes the transaction registered; a buffer
pool drops its cached copies of the pages put back.
"""

import pytest

from repro.core.node import DataPage
from repro.core.tree import BVTree
from repro.errors import KeyNotFoundError
from repro.geometry.space import DataSpace
from repro.storage.buffer import BufferPool
from repro.storage.durable import create_durable_tree, open_durable_tree
from repro.storage.durable.recovery import recover_store
from repro.storage.durable.store import DurableStore
from repro.storage.durable.wal import REC_CLASS, base_type, scan_wal
from repro.storage.pager import PageStore


class Abort(Exception):
    """Leaves a transaction by an exception."""


class _Page:
    """A page payload with the one method copy on first write needs."""

    def __init__(self, items=()):
        self.items = list(items)

    def clone(self):
        return _Page(self.items)


def state(store):
    """What an abort must put back."""
    return (
        {pid: store.peek(pid) for pid in store.page_ids()},
        {pid: store.size_class_of(pid) for pid in store.page_ids()},
        store.live_pages(),
        store.live_bytes(),
        {
            size_class: stats.live_pages
            for size_class, stats in store.class_stats().items()
            if stats.live_pages
        },
    )


def data_page(*records):
    page = DataPage()
    for path, point, value in records:
        page.insert(path, point, value)
    return page


class TestPageStoreAbort:
    def test_abort_puts_every_page_back(self):
        store = PageStore(1024)
        written = store.allocate(_Page([1]))
        private = store.allocate(_Page([2]))
        freed = store.allocate(_Page([3]), size_class=2)
        untouched = store.allocate(_Page([4]))
        before = state(store)
        with pytest.raises(Abort):
            with store.transaction("insert"):
                new = store.allocate(_Page([5]), size_class=1)
                page = store.writable(written)
                page.items.append(6)
                store.write(written, page)
                store.writable(private).items.append(7)  # never written
                store.free(freed)
                doomed = store.allocate(_Page([8]))
                store.free(doomed)
                raise Abort()
        assert state(store) == before
        assert [store.peek(p).items for p in (written, private, freed)] == [
            [1], [2], [3]
        ]
        assert untouched in store and store.preimages == {}
        # The record stays; the cursor was rewound.
        assert list(store.touched) == [new, written, freed, doomed]
        assert store.allocate(_Page()) == new

    def test_counters_keep_the_aborted_work(self):
        store = PageStore()
        page = store.allocate(_Page([1]))
        with pytest.raises(Abort):
            with store.transaction("insert"):
                store.write(page, _Page([2]))
                store.allocate(_Page())
                raise Abort()
        assert (store.stats.writes, store.stats.allocations) == (1, 2)
        assert store.class_stats()[0].total_allocated == 2

    def test_only_the_outermost_aborts(self):
        store = PageStore()
        with store.transaction("batch"):
            first = store.allocate(_Page([1]))
            with pytest.raises(Abort):
                with store.transaction("insert"):
                    second = store.allocate(_Page([2]))
                    raise Abort()
        assert first in store and second in store
        assert store.touched == {first: 0, second: 0}

    def test_a_commit_forgets_the_pre_images(self):
        store = PageStore()
        page = store.allocate(_Page([1]))
        with store.transaction("insert"):
            store.writable(page)  # made private, not written
        committed = store.peek(page)
        assert store.preimages == {}
        with pytest.raises(Abort):
            with store.transaction("insert"):
                store.writable(page).items.append(2)
                raise Abort()
        assert store.peek(page) is committed and committed.items == [1]


class TestDurableAbort:
    def test_an_aborted_size_class_is_logged_when_registered_again(
        self, tmp_path
    ):
        store = DurableStore(tmp_path, 1024, sync="os")
        with pytest.raises(Abort):
            with store.transaction("insert"):
                store.register_size_class(1, 1024)
                store.allocate(data_page((1, (0.5,), "a")), size_class=1)
                raise Abort()
        assert 1 not in store.class_stats()
        with store.transaction("insert"):
            store.register_size_class(1, 1024)
            store.allocate(data_page((1, (0.5,), "a")), size_class=1)
        store.close(checkpoint=False)
        classes = [
            payload
            for _, rtype, payload in scan_wal(store.wal_path).records
            if base_type(rtype) == REC_CLASS
        ]
        assert [(c["sc"], c["b"]) for c in classes] == [(1, 1024)]
        recovered, _ = recover_store(tmp_path, sync="os")
        assert recovered.class_stats()[1].page_bytes == 1024
        assert recovered.live_bytes() == 1024
        recovered.close(checkpoint=False)

    def test_a_changed_size_class_gets_its_bytes_back(self, tmp_path):
        store = DurableStore(tmp_path, 1024, sync="os")
        store.register_size_class(3, 4096)
        with pytest.raises(Abort):
            with store.transaction("insert"):
                store.register_size_class(3, 8192)
                raise Abort()
        assert store.class_stats()[3].page_bytes == 4096
        store.close(checkpoint=False)

    def test_an_abort_writes_nothing(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        page = store.allocate(data_page((1, (0.5,), "a")))
        size, seq = store.wal_stats.bytes_written, store.wal_seq
        with pytest.raises(Abort):
            with store.transaction("delete"):
                store.free(page)
                store.allocate(data_page((2, (0.25,), "b")))
                raise Abort()
        assert (store.wal_stats.bytes_written, store.wal_seq) == (size, seq)
        assert sorted(store.read(page).records) == [1]
        store.close(checkpoint=False)

    def test_a_tree_whose_first_index_node_aborts_recovers_its_classes(
        self, tmp_path
    ):
        space = DataSpace.unit(2, resolution=8)
        tree = create_durable_tree(
            tmp_path, space, data_capacity=4, fanout=4, sync="os"
        )
        points = [((i + 0.5) / 8, 0.5) for i in range(8)]
        for i, point in enumerate(points[:4]):
            tree.insert(point, i)
        assert tree.height == 0
        # The fifth insert splits the root data page and allocates the
        # tree's first index node, in a new size class: abort it.
        with pytest.raises(Abort):
            with tree.transaction("insert"):
                tree.insert(points[4], 4)
                assert tree.height == 1
                raise Abort()
        assert tree.height == 0
        for i, point in enumerate(points[4:], start=4):
            tree.insert(point, i)
        classes = {
            sc: stats.page_bytes
            for sc, stats in tree.store.class_stats().items()
        }
        live_bytes = tree.store.live_bytes()
        tree.store.close(checkpoint=False)
        recovered, _ = open_durable_tree(tmp_path, sync="os")
        assert {
            sc: stats.page_bytes
            for sc, stats in recovered.store.class_stats().items()
        } == classes
        assert recovered.store.live_bytes() == live_bytes
        assert sorted(v for _, v in recovered.items()) == list(range(8))
        recovered.store.close(checkpoint=False)


class TestBufferPoolAbort:
    def test_the_pool_is_its_transactions_context(self):
        pool = BufferPool(PageStore(), capacity=8)
        assert pool.transaction("insert") is pool
        with pool.transaction("insert"):
            page = pool.allocate(_Page([1]))
        assert pool.touched == {page: 0}

    def test_an_abort_drops_the_cached_copies(self):
        pool = BufferPool(PageStore(), capacity=8)
        page = pool.allocate(_Page([1]))
        committed = pool.read(page)
        with pytest.raises(Abort):
            with pool.transaction("insert"):
                pool.writable(page).items.append(2)
                new = pool.allocate(_Page([3]))
                raise Abort()
        assert not pool.resident(page) and not pool.resident(new)
        assert pool.read(page) is committed

    def test_a_buffered_tree_serves_no_aborted_insert(self):
        space = DataSpace.unit(2, resolution=8)
        tree = BVTree(
            space, data_capacity=4, fanout=4,
            store=BufferPool(PageStore(1024), capacity=256),
        )
        points = [
            ((i % 16 + 0.5) / 16, (i // 16 + 0.5) / 16) for i in range(200)
        ]
        for i, point in enumerate(points[:150]):
            tree.insert(point, i)
        for i, point in enumerate(points[150:], start=150):
            with pytest.raises(Abort):
                with tree.transaction("insert"):
                    tree.insert(point, i)
                    raise Abort()
        assert tree.count == 150
        for point in points[150:]:
            with pytest.raises(KeyNotFoundError):
                tree.get(point)
        tree.check(check_owners=True)
