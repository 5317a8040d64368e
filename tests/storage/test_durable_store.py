"""Unit tests of :class:`DurableStore`: logging, transactions, liveness."""

import gc
import os
import random
import tracemalloc

import pytest

from repro.concurrency.service import TreeService, delete_op, insert_op
from repro.core.node import DataPage
from repro.core.tree import BVTree
from repro.errors import RecoveryError, SimulatedCrashError, StorageError
from repro.geometry.space import DataSpace
from repro.obs.events import OP_END
from repro.obs.monitor import GuaranteeMonitor
from repro.obs.profile import OpProfiler
from repro.obs.sinks import RingSink
from repro.storage.durable.recovery import recover_store
from repro.storage.durable.store import (
    PAGEFILE_NAME,
    WAL_NAME,
    DurableStore,
)
from repro.storage.durable.wal import (
    REC_COMMIT_FLAG,
    REC_WRITE,
    base_type,
    scan_wal,
)
from repro.storage.faults import FaultPlan
from repro.storage.buffer import BufferPool
from repro.storage.pager import PageStore


def wal_records(store):
    store._wal.flush()
    return scan_wal(store.wal_path).records


def data_page(*records):
    page = DataPage()
    for path, point, value in records:
        page.insert(path, point, value)
    return page


class TestConstruction:
    def test_unknown_sync_mode_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            DurableStore(tmp_path / "s", sync="eventually")

    @pytest.mark.parametrize("existing", [WAL_NAME, PAGEFILE_NAME])
    def test_refuses_directory_with_store_files(self, tmp_path, existing):
        (tmp_path / existing).write_bytes(b"")
        with pytest.raises(StorageError, match="recover_store"):
            DurableStore(tmp_path)

    def test_recover_refuses_missing_directory_untouched(self, tmp_path):
        target = tmp_path / "typo2"
        with pytest.raises(RecoveryError, match="holds no durable store"):
            recover_store(target)
        assert not target.exists()

    def test_recover_refuses_empty_directory_untouched(self, tmp_path):
        with pytest.raises(RecoveryError, match="holds no durable store"):
            recover_store(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_creates_wal_in_fresh_directory(self, tmp_path):
        store = DurableStore(tmp_path / "fresh")
        assert os.path.exists(store.wal_path)
        assert not os.path.exists(store.pagefile_path)
        store.close(checkpoint=False)


class TestLogging:
    def test_every_mutation_reaches_the_wal(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        page_id = store.allocate(data_page((1, (0.5,), "a")))
        store.write(page_id, data_page((1, (0.5,), "a"), (2, (0.25,), "b")))
        store.free(page_id)
        names = [base_type(rtype) for _, rtype, _ in wal_records(store)]
        # alloc, write, free (plus the size-class record from __init__'s
        # register_size_class is absent — the store registers none here).
        assert len(names) == 3
        store.close(checkpoint=False)

    def test_second_write_logs_a_delta(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        page_id = store.allocate(data_page((1, (0.5,), "a")))
        page = store.writable(page_id)
        page.insert(2, (0.25,), "b")
        store.write(page_id, page)
        records = wal_records(store)
        alloc_payload = records[0][2]
        write_payload = records[1][2]
        assert "dk" not in alloc_payload
        assert write_payload["dk"] == 1
        assert write_payload["p"] == [2]
        store.close(checkpoint=False)

    def test_unchanged_write_logs_nothing(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        page_id = store.allocate(data_page((1, (0.5,), "a")))
        before = store.wal_stats.appends
        store.write(page_id, store.writable(page_id))
        assert store.wal_stats.appends == before
        store.close(checkpoint=False)

    def test_delta_records_removals(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        page_id = store.allocate(data_page((1, (0.5,), "a"), (2, (0.25,), "b")))
        page = store.writable(page_id)
        del page.records[1]
        store.write(page_id, page)
        assert wal_records(store)[-1][2]["r"] == [1]
        store.close(checkpoint=False)

    def test_size_class_registered_once(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        store.register_size_class(1, 2048)
        store.register_size_class(1, 2048)
        classes = [
            payload
            for _, rtype, payload in wal_records(store)
            if base_type(rtype) == 4  # REC_CLASS
        ]
        assert len(classes) == 1
        store.close(checkpoint=False)


class TestTransactions:
    def build_tree(self, tmp_path, **kwargs):
        store = DurableStore(tmp_path, sync=kwargs.pop("sync", "os"), **kwargs)
        space = DataSpace.unit(2, resolution=16)
        tree = BVTree(
            space, data_capacity=4, fanout=4, store=store, layout="object"
        )
        return tree, store

    def test_one_commit_per_tree_operation(self, tmp_path):
        tree, store = self.build_tree(tmp_path)
        base = store.wal_stats.commits
        for i in range(8):
            tree.insert((0.1 + i / 16, 0.2), i)
        assert store.wal_stats.commits == base + 8
        flagged = [
            payload
            for _, rtype, payload in wal_records(store)
            if rtype & REC_COMMIT_FLAG
        ]
        assert all(p["op"] in ("insert", "auto") for p in flagged)
        assert [p["op"] for p in flagged[-8:]] == ["insert"] * 8
        store.close(checkpoint=False)

    def test_mutations_outside_spans_auto_commit(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        store.allocate(data_page((1, (0.5,), "a")))
        [(_, rtype, payload)] = wal_records(store)
        assert rtype & REC_COMMIT_FLAG
        assert payload["op"] == "auto"
        store.close(checkpoint=False)

    def test_failed_operation_writes_nothing(self, tmp_path):
        tree, store = self.build_tree(tmp_path)
        tree.insert((0.5, 0.5), "kept")
        length_before = store._wal.length
        commits_before = store.wal_stats.commits
        # An operation that mutates and then fails inside its
        # transaction: the buffered allocation never reaches the log.
        with pytest.raises(RuntimeError, match="doomed"):
            with store.transaction("insert"):
                store.allocate(data_page((9, (0.9, 0.9), "doomed")))
                raise RuntimeError("doomed")
        assert store._wal.length == length_before
        assert store.wal_stats.commits == commits_before
        store.close(checkpoint=False)
        # Only the committed insert survives recovery.
        recovered, report = recover_store(tmp_path, sync="os")
        assert report.op_commits.count("insert") == 1
        recovered.close(checkpoint=False)

    def test_sync_commit_fsyncs_every_commit(self, tmp_path):
        tree, store = self.build_tree(tmp_path, sync="commit")
        for i in range(4):
            tree.insert((0.1 + i / 8, 0.3), i)
        assert store.wal_stats.syncs >= 4
        store.close(checkpoint=False)

    def test_untraced_tree_commits_one_transaction_per_op(self, tmp_path):
        # The store subscribes to no tracer: a fresh durable tree stays
        # untraced and still commits each operation as one transaction.
        space = DataSpace.unit(2, resolution=16)
        store = DurableStore(tmp_path, sync="os")
        tree = BVTree(space, data_capacity=4, fanout=4, store=store)
        assert tree.tracer.structural is False
        assert store.tracer.subscribers == ()
        points = [((i % 7) / 8 + 0.01, (i % 5) / 6 + 0.02) for i in range(30)]
        base = store.wal_stats.commits
        tree.bulk_load([(p, i) for i, p in enumerate(points)])
        assert store.wal_stats.commits == base + 1
        for i in range(12):
            tree.insert((0.9 - i / 64, 0.95), i)
        for i in range(5):
            tree.delete(points[i])
        assert store.wal_stats.commits == base + 1 + 12 + 5
        assert tree.tracer.structural is False
        flagged = [
            payload["op"]
            for _, rtype, payload in wal_records(store)
            if rtype & REC_COMMIT_FLAG
        ]
        assert flagged[-18:] == ["bulk_load"] + ["insert"] * 12 + ["delete"] * 5
        store.close(checkpoint=False)

    def test_nested_transactions_commit_once_at_the_outermost(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        base = store.wal_stats.commits
        with store.transaction("bulk_load"):
            store.allocate(data_page((1, (0.5,), "a")))
            with store.transaction("insert"):
                store.allocate(data_page((2, (0.25,), "b")))
            assert store.wal_stats.commits == base
        assert store.wal_stats.commits == base + 1
        assert wal_records(store)[-1][2]["op"] == "bulk_load"
        store.close(checkpoint=False)

    def test_dirty_abort_keeps_committed_delta_bases(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        page_id = store.allocate(data_page((1, (0.5,), "a")))
        with pytest.raises(RuntimeError):
            with store.transaction("insert"):
                page = store.writable(page_id)
                page.insert(2, (0.25,), "b")
                store.write(page_id, page)
                raise RuntimeError("abort")
        # The aborted change never reached the log, and the abort put
        # the committed image back as the page and the delta base: the
        # next write logs its own change only.
        assert sorted(store.peek(page_id).records) == [1]
        page = store.writable(page_id)
        page.insert(3, (0.75,), "c")
        store.write(page_id, page)
        last = wal_records(store)[-1][2]
        assert last["dk"] == 1
        assert sorted(last["p"]) == [3]
        store.close(checkpoint=False)
        recovered, _ = recover_store(tmp_path, sync="os")
        assert sorted(recovered.read(page_id).records) == [1, 3]
        recovered.close(checkpoint=False)

    def test_page_written_many_times_logs_one_record(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        page_id = store.allocate(data_page((1, (0.5,), "a")))
        node_id = store.allocate("v0")
        before = store.wal_stats.appends
        with store.transaction("insert"):
            for path in (2, 3, 4):
                page = store.writable(page_id)
                page.insert(path, (path / 8,), path)
                store.write(page_id, page)
                store.write(node_id, f"v{path}")
        assert store.wal_stats.appends == before + 2
        (_, _, delta), (_, rtype, image) = wal_records(store)[-2:]
        assert delta["id"] == page_id and sorted(delta["p"]) == [2, 3, 4]
        assert image["id"] == node_id and image["c"]["v"] == "v4"
        assert rtype & REC_COMMIT_FLAG
        store.close(checkpoint=False)

    def test_page_allocated_and_freed_in_one_transaction(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        kept = store.allocate(data_page((1, (0.5,), "a")))
        with store.transaction("insert"):
            doomed = store.allocate(data_page((2, (0.25,), "b")))
            store.write(kept, data_page((1, (0.5,), "a"), (3, (0.75,), "c")))
            store.free(doomed)
        live = sorted(store.page_ids())
        next_id = store.allocate(None)
        assert next_id == doomed + 1
        store.close(checkpoint=False)
        recovered, _ = recover_store(tmp_path, sync="os")
        # The doomed page is gone, but the allocation cursor moved past
        # it, as it did in the live store.
        assert sorted(recovered.page_ids()) == live + [next_id]
        assert recovered.allocate(None) == next_id + 1
        recovered.close(checkpoint=False)

    def test_bulk_load_logs_each_page_once(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        tree = BVTree(DataSpace.unit(2), store=store)
        rng = random.Random(5)
        tree.bulk_load(
            ((rng.random(), rng.random()), i) for i in range(50_000)
        )
        records = wal_records(store)
        txn = records[-1][2]["x"]
        page_ids = [
            payload["id"]
            for _, rtype, payload in records
            if payload["x"] == txn and "id" in payload
        ]
        assert len(page_ids) == len(set(page_ids)) <= len(store)
        assert set(page_ids) == set(store.page_ids())
        store.close(checkpoint=False)

    def test_failed_commit_kills_the_store(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        kept = store.allocate(data_page((1, (0.5,), "a")))
        with pytest.raises(TypeError):
            with store.transaction("insert"):
                for path in (2, 3):
                    store.allocate(data_page((path, (path / 8,), path)))
                store.allocate(data_page((4, (0.5,), object())))
        # The first record reached the log before the third failed to
        # encode; the store cannot take it back, so it dies.
        assert store.dead
        with pytest.raises(StorageError, match="failed commit"):
            store.read(kept)
        recovered, report = recover_store(tmp_path, sync="os")
        assert report.records_uncommitted == 1
        assert sorted(recovered.page_ids()) == [kept]
        recovered.close(checkpoint=False)

    def test_clean_abort_keeps_delta_bases(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        page_id = store.allocate(data_page((1, (0.5,), "a")))
        with pytest.raises(RuntimeError):
            with store.transaction("insert"):
                raise RuntimeError("validation failed before any write")
        page = store.writable(page_id)
        page.insert(2, (0.25,), "b")
        store.write(page_id, page)
        assert wal_records(store)[-1][2]["dk"] == 1
        store.close(checkpoint=False)

    def test_one_commit_per_op_beside_other_subscribers(self, tmp_path):
        tree, store = self.build_tree(tmp_path)
        ring = RingSink(capacity=1 << 16)
        tree.tracer.subscribe(ring)
        with GuaranteeMonitor(tree) as monitor, OpProfiler(tree) as profiler:
            base = store.wal_stats.commits
            for i in range(8):
                tree.insert((0.1 + i / 16, 0.2), i)
            tree.delete((0.1, 0.2))
            assert store.wal_stats.commits == base + 9
            assert monitor.audit().clean
            assert profiler.profile("insert").ops == 8
        flagged = [
            payload["op"]
            for _, rtype, payload in wal_records(store)
            if rtype & REC_COMMIT_FLAG
        ]
        assert flagged[-9:] == ["insert"] * 8 + ["delete"]
        ends = [e for e in ring.events() if e.kind == OP_END]
        assert [e.fields["name"] for e in ends] == ["insert"] * 8 + ["delete"]
        store.close(checkpoint=False)


class TestTransactionForwarding:
    """Wrapping stores forward ``transaction``: a wrapper that did not
    would fall back to one auto-commit per mutation, silently."""

    def points(self, n=40):
        return [((i * 37 % 97) / 97, (i * 61 % 89) / 89) for i in range(n)]

    def assert_one_commit_per_op(self, store, insert, delete):
        points = self.points()
        for i, point in enumerate(points):
            before = store.wal_stats.commits
            insert(point, i)
            assert store.wal_stats.commits == before + 1
        for point in points[::3]:
            before = store.wal_stats.commits
            delete(point)
            assert store.wal_stats.commits == before + 1

    def test_buffer_pool_over_durable_store(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        space = DataSpace.unit(2, resolution=16)
        tree = BVTree(
            space,
            data_capacity=4,
            fanout=4,
            store=BufferPool(store, capacity=8),
            layout="columnar",
        )
        self.assert_one_commit_per_op(store, tree.insert, tree.delete)
        store.close(checkpoint=False)

    def test_tree_service_over_durable_store(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        space = DataSpace.unit(2, resolution=16)
        tree = BVTree(
            space, data_capacity=4, fanout=4, store=store, layout="columnar"
        )
        service = TreeService(tree)
        self.assert_one_commit_per_op(store, service.insert, service.delete)
        before = store.wal_stats.commits
        outcomes, _ = service.apply_ops(
            [insert_op((0.01, 0.99), 1), delete_op(self.points()[1])]
        )
        assert [ok for ok, _ in outcomes] == [True, True]
        assert store.wal_stats.commits == before + 2
        store.close(checkpoint=False)


class TestMemory:
    def test_delta_bases_stay_small_beside_the_tree(self, tmp_path):
        # The durable store keeps one clone of each data page as its
        # delta base, nothing else per record: a bulk-loaded durable
        # tree holds at most 1.5x the live memory of an in-memory one
        # (values included, since the tree owns them once loaded).
        space = DataSpace.unit(2)

        def live_bytes(store):
            rng = random.Random(3)
            gc.collect()
            tracemalloc.start()
            try:
                tree = BVTree(space, store=store, layout="columnar")
                tree.bulk_load(
                    ((rng.random(), rng.random()), 10_000 + i)
                    for i in range(10_000)
                )
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        in_memory = live_bytes(PageStore())
        store = DurableStore(tmp_path, sync="os")
        durable = live_bytes(store)
        store.close(checkpoint=False)
        assert durable <= 1.5 * in_memory, (durable, in_memory)


class TestCheckpoint:
    def test_checkpoint_installs_pagefile_and_resets_wal(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        store.allocate(data_page((1, (0.5,), "a")))
        store.checkpoint()
        assert os.path.exists(store.pagefile_path)
        assert wal_records(store) == []
        store.close(checkpoint=False)

    def test_meta_survives_recovery(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        store.set_meta("answer", 42)
        store.close(checkpoint=True)
        recovered, report = recover_store(tmp_path)
        assert recovered.meta["answer"] == 42
        assert report.had_checkpoint
        recovered.close(checkpoint=False)

    def test_close_without_checkpoint_leaves_wal_as_record(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        store.allocate(data_page((1, (0.5,), "a")))
        store.close(checkpoint=False)
        assert not os.path.exists(
            os.path.join(str(tmp_path), PAGEFILE_NAME)
        )
        assert len(scan_wal(os.path.join(str(tmp_path), WAL_NAME)).records) == 1


class TestLiveness:
    def crashed_store(self, tmp_path):
        store = DurableStore(
            tmp_path,
            faults=FaultPlan(crash_after_appends=2),
            sync="os",
        )
        page_id = store.allocate(data_page((1, (0.5,), "a")))
        with pytest.raises(SimulatedCrashError):
            store.allocate(data_page((2, (0.25,), "b")))
        return store, page_id

    def test_dead_store_refuses_every_access(self, tmp_path):
        store, page_id = self.crashed_store(tmp_path)
        assert store.dead
        for call in (
            lambda: store.read(page_id),
            lambda: store.peek(page_id),
            lambda: store.write(page_id, DataPage()),
            lambda: store.allocate(DataPage()),
            lambda: store.free(page_id),
            lambda: store.set_meta("k", 1),
            store.checkpoint,
            lambda: list(store.page_ids()),
        ):
            with pytest.raises(StorageError, match="recover_store"):
                call()

    def test_dead_store_close_is_a_noop(self, tmp_path):
        store, _ = self.crashed_store(tmp_path)
        store.close()  # must not raise, must not checkpoint
        assert not os.path.exists(store.pagefile_path)

    def test_closed_store_refuses_reads(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        page_id = store.allocate(data_page((1, (0.5,), "a")))
        store.close()
        with pytest.raises(StorageError, match="closed"):
            store.read(page_id)
        store.close()  # idempotent


class TestEquivalenceWithPageStore:
    def test_same_page_protocol_results(self, tmp_path):
        durable = DurableStore(tmp_path, sync="os")
        memory = PageStore()
        ids = []
        for backend in (durable, memory):
            a = backend.allocate(data_page((1, (0.5, 0.5), "a")))
            b = backend.allocate(None)
            backend.write(b, data_page((2, (0.25, 0.75), "b")))
            backend.free(a)
            ids.append((a, b))
        assert ids[0] == ids[1]
        assert durable.read(ids[0][1]).records == memory.read(ids[1][1]).records
        assert list(durable.page_ids()) == list(memory.page_ids())
        durable.close(checkpoint=False)


class TestColumnarDurability:
    """Columnar trees persist and recover as columnar trees."""

    def _populate(self, tree, n=250):
        pts = []
        for i in range(n):
            p = ((i * 37 % 128) / 128, (i * 101 % 128) / 128)
            tree.insert(p, i, replace=True)
            pts.append((p, i))
        return {p: v for p, v in pts}

    def test_round_trip_after_close(self, tmp_path):
        from repro.core.columnar import ColumnarDataPage, ColumnarIndexNode
        from repro.storage.durable.recovery import (
            create_durable_tree,
            open_durable_tree,
        )

        space = DataSpace.unit(2, resolution=7)
        tree = create_durable_tree(
            tmp_path / "col",
            space,
            data_capacity=8,
            fanout=8,
            layout="columnar",
        )
        model = self._populate(tree)
        assert tree.layout == "columnar"
        tree.store.close()

        recovered, report = open_durable_tree(tmp_path / "col")
        assert recovered.layout == "columnar"
        assert len(recovered) == len(model)
        for p, v in model.items():
            assert recovered.get(p) == v
        root = recovered.store.read(recovered.root_page)
        assert isinstance(root, (ColumnarDataPage, ColumnarIndexNode))
        recovered.check(check_owners=True, check_occupancy=False)
        recovered.store.close(checkpoint=False)

    def test_recovery_without_checkpoint_replays_columnar_wal(self, tmp_path):
        from repro.storage.durable.recovery import (
            create_durable_tree,
            open_durable_tree,
        )

        space = DataSpace.unit(2, resolution=7)
        tree = create_durable_tree(
            tmp_path / "col", space, data_capacity=8, fanout=8,
            layout="columnar", sync="os",
        )
        model = self._populate(tree, n=120)
        # Abandon the store without closing: recovery replays the WAL.
        # Without the close-time flush, the tail of the log may still sit
        # in a userspace buffer — durability is a committed *prefix* of
        # the operation sequence, same contract the crash matrix checks.
        # Close the raw file under the buffer, as a killed process
        # would: the handle is released and the buffered tail dropped.
        tree.store._dead = True  # type: ignore[attr-defined]
        tree.store._wal._file.raw.close()

        recovered, report = open_durable_tree(tmp_path / "col", sync="os")
        assert recovered.layout == "columnar"
        survivors = len(recovered)
        assert 0 < survivors <= len(model)
        for p, v in list(model.items())[:survivors]:
            assert recovered.get(p) == v
        recovered.check(check_owners=True, check_occupancy=False)
        recovered.store.close(checkpoint=False)
