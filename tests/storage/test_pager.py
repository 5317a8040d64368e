"""Unit tests for the page store."""

import pytest

from repro.errors import PageNotFoundError, StorageError
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
from repro.storage.pager import PageStore


class TestLifecycle:
    def test_allocate_read_write(self):
        store = PageStore()
        page = store.allocate({"a": 1})
        assert store.read(page) == {"a": 1}
        store.write(page, {"a": 2})
        assert store.read(page) == {"a": 2}

    def test_ids_are_unique_and_never_reused(self):
        store = PageStore()
        a = store.allocate("a")
        store.free(a)
        b = store.allocate("b")
        assert a != b

    def test_free_removes(self):
        store = PageStore()
        page = store.allocate("x")
        store.free(page)
        assert page not in store
        with pytest.raises(PageNotFoundError):
            store.read(page)

    def test_read_unknown_page(self):
        with pytest.raises(PageNotFoundError):
            PageStore().read(42)

    def test_peek_reads_without_counting(self):
        store = PageStore()
        page = store.allocate("x")
        reads_before = store.stats.reads
        assert store.peek(page) == "x"
        assert store.stats.reads == reads_before

    def test_peek_unknown_page(self):
        with pytest.raises(PageNotFoundError):
            PageStore().peek(42)

    def test_write_unknown_page(self):
        with pytest.raises(PageNotFoundError):
            PageStore().write(42, "x")

    def test_free_unknown_page(self):
        with pytest.raises(PageNotFoundError):
            PageStore().free(42)

    def test_len_and_iteration(self):
        store = PageStore()
        ids = {store.allocate(i) for i in range(5)}
        assert len(store) == 5
        assert set(store.page_ids()) == ids

    def test_rejects_bad_page_size(self):
        with pytest.raises(StorageError):
            PageStore(page_bytes=0)


class TestAccounting:
    def test_io_counters(self):
        store = PageStore()
        page = store.allocate("x")
        store.read(page)
        store.read(page)
        store.write(page, "y")
        store.free(page)
        assert store.stats.allocations == 1
        assert store.stats.reads == 2
        assert store.stats.writes == 1
        assert store.stats.frees == 1
        assert store.stats.total == 5

    def test_snapshot_delta(self):
        store = PageStore()
        page = store.allocate("x")
        before = store.stats.snapshot()
        store.read(page)
        store.read(page)
        delta = store.stats.delta(before)
        assert delta.reads == 2
        assert delta.allocations == 0

    def test_reset(self):
        store = PageStore()
        store.allocate("x")
        store.stats.reset()
        assert store.stats.total == 0


class TestSizeClasses:
    def test_default_class_sizes_scale(self):
        store = PageStore(page_bytes=100)
        store.allocate("a", size_class=0)
        store.allocate("b", size_class=2)
        stats = store.class_stats()
        assert stats[0].page_bytes == 100
        assert stats[2].page_bytes == 300

    def test_registered_class_size(self):
        store = PageStore(page_bytes=100)
        store.register_size_class(3, 1234)
        store.allocate("x", size_class=3)
        assert store.class_stats()[3].page_bytes == 1234

    def test_reregister_conflicting_size_with_live_pages(self):
        store = PageStore()
        store.register_size_class(1, 100)
        store.allocate("x", size_class=1)
        with pytest.raises(StorageError):
            store.register_size_class(1, 200)

    def test_reregister_same_size_is_fine(self):
        store = PageStore()
        store.register_size_class(1, 100)
        store.allocate("x", size_class=1)
        store.register_size_class(1, 100)

    def test_live_pages_per_class(self):
        store = PageStore()
        a = store.allocate("a", size_class=0)
        store.allocate("b", size_class=0)
        store.allocate("c", size_class=1)
        assert store.live_pages() == 3
        assert store.live_pages(0) == 2
        assert store.live_pages(1) == 1
        assert store.live_pages(9) == 0
        store.free(a)
        assert store.live_pages(0) == 1

    def test_live_bytes(self):
        store = PageStore(page_bytes=10)
        store.register_size_class(1, 25)
        store.allocate("a", size_class=0)
        store.allocate("b", size_class=1)
        assert store.live_bytes() == 35

    def test_peak_and_total_allocated(self):
        store = PageStore()
        a = store.allocate("a")
        store.free(a)
        store.allocate("b")
        stats = store.class_stats()[0]
        assert stats.total_allocated == 2
        assert stats.peak_pages == 1
        assert stats.live_pages == 1

    def test_size_class_of(self):
        store = PageStore()
        page = store.allocate("x", size_class=4)
        assert store.size_class_of(page) == 4
        store.free(page)
        with pytest.raises(PageNotFoundError):
            store.size_class_of(page)

    def test_rejects_negative_size_class(self):
        store = PageStore()
        with pytest.raises(StorageError):
            store.allocate("x", size_class=-1)
        with pytest.raises(StorageError):
            store.register_size_class(-1, 10)


class _CommitLog(PageStore):
    """A page store that keeps a copy of each record it commits."""

    def __init__(self):
        super().__init__()
        self.commits = []

    def _commit(self, op_name, touched):
        self.commits.append((op_name, dict(touched)))


class TestTransactions:
    def test_store_is_its_own_context(self):
        store = PageStore()
        assert store.transaction("insert") is store

    def test_record_names_each_touched_page_once(self):
        store = PageStore()
        kept = store.allocate("k")
        gone = store.allocate("g")
        with store.transaction("insert"):
            new = store.allocate("n", size_class=2)
            store.write(kept, "k2")
            store.write(new, "n2")
            store.write(kept, "k3")
            store.free(gone)
        assert store.touched == {new: 2, kept: None, gone: None}
        assert list(store.touched) == [new, kept, gone]

    def test_nested_transactions_join_the_outermost(self):
        store = _CommitLog()
        with store.transaction("bulk_load"):
            a = store.allocate("a")
            with store.transaction("insert"):
                b = store.allocate("b")
            assert store.commits == []
        assert store.commits == [("bulk_load", {a: 0, b: 0})]

    def test_record_lasts_until_the_next_transaction_opens(self):
        store = PageStore()
        with store.transaction("insert"):
            a = store.allocate("a")
        assert store.touched == {a: 0}
        with store.transaction("get"):
            assert store.touched == {}
        assert store.touched == {}

    def test_mutation_outside_a_transaction_commits_alone(self):
        store = _CommitLog()
        a = store.allocate("a")
        store.write(a, "b")
        assert store.commits == [("auto", {a: 0}), ("auto", {a: None})]
        assert store.touched == {a: None}

    def test_exception_keeps_the_record_and_commits_nothing(self):
        store = _CommitLog()
        with pytest.raises(RuntimeError):
            with store.transaction("insert"):
                a = store.allocate("a")
                raise RuntimeError("boom")
        assert store.commits == []
        # The record stays readable; what it allocated is gone, and the
        # next allocation takes its id again.
        assert store.touched == {a: 0}
        assert a not in store and len(store) == 0
        with store.transaction("insert"):
            assert store.touched == {}
            assert store.allocate("b") == a


class _Page:
    """A page payload with the one method copy on first write needs."""

    def __init__(self, items=()):
        self.items = list(items)

    def clone(self):
        return _Page(self.items)


class TestWritable:
    def test_counts_and_traces_exactly_as_read(self):
        ring = RingSink(capacity=64)
        store = PageStore()
        store.tracer = Tracer(ring)
        page = store.allocate(_Page())
        store.read(page)
        with store.transaction("insert"):
            store.writable(page)
            store.writable(page)
        assert store.stats.reads == 3
        reads = [e for e in ring.events() if e.kind == "page_read"]
        assert [e.fields for e in reads] == [{"page": page, "physical": True}] * 3

    def test_first_touch_copies_and_records_the_pre_image(self):
        store = PageStore()
        page = store.allocate(_Page([1]))
        committed = store.peek(page)
        with store.transaction("insert"):
            private = store.writable(page)
            assert private is not committed
            assert store.peek(page) is private
            assert store.writable(page) is private
            assert store.preimages == {page: committed}
            private.items.append(2)
            store.write(page, private)
            # A write of a fresh object keeps the first pre-image.
            store.write(page, _Page([1, 2, 3]))
            assert store.preimages == {page: committed}
        assert committed.items == [1]
        assert store.preimages == {}

    def test_page_the_transaction_allocated_comes_back_as_it_is(self):
        store = PageStore()
        with store.transaction("insert"):
            page = store.allocate(_Page())
            content = store.peek(page)
            assert store.writable(page) is content
            store.write(page, content)
        assert store.preimages == {}

    def test_write_and_free_record_the_pre_image_on_first_touch(self):
        store = PageStore()
        kept = store.allocate(_Page([1]))
        gone = store.allocate(_Page([2]))
        old_kept, old_gone = store.peek(kept), store.peek(gone)
        with store.transaction("delete"):
            store.write(kept, _Page([3]))
            store.free(gone)
            assert store.preimages == {kept: old_kept, gone: old_gone}

    def test_write_refuses_a_page_changed_in_place(self):
        store = PageStore()
        page = store.allocate(_Page([1]))
        with pytest.raises(StorageError, match="changed in place"):
            with store.transaction("insert"):
                content = store.read(page)
                content.items.append(2)
                store.write(page, content)
        # Writing back a pre-image after privatising it is refused too.
        with pytest.raises(StorageError, match="changed in place"):
            with store.transaction("insert"):
                committed = store.peek(page)
                store.writable(page)
                store.write(page, committed)

    def test_abort_keeps_the_pre_image_until_a_commit(self):
        store = PageStore()
        page = store.allocate(_Page([1]))
        committed = store.peek(page)
        with pytest.raises(RuntimeError):
            with store.transaction("insert"):
                store.writable(page).items.append(2)
                raise RuntimeError("abort")
        # The abort put the pre-image back, though the copy was never
        # written, and forgot it: the page stays the committed object.
        assert store.peek(page) is committed and committed.items == [1]
        assert store.preimages == {}
        with store.transaction("insert"):
            private = store.writable(page)
            assert private is not committed and private.items == [1]
            assert store.preimages == {page: committed}
            store.write(page, private)
        assert store.peek(page) is private
        assert store.preimages == {}

    def test_outside_a_transaction(self):
        store = PageStore()
        page = store.allocate(_Page([1]))
        # A write may hand back the object it read (no pre-image).
        content = store.read(page)
        content.items.append(2)
        store.write(page, content)
        # writable still copies; the auto commit settles its pre-image.
        private = store.writable(page)
        assert private is not content and store.preimages == {page: content}
        store.write(page, private)
        assert store.preimages == {}
