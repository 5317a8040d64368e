"""Unit tests of :class:`DurableStore`: logging, transactions, liveness."""

import os

import pytest

from repro.core.node import DataPage
from repro.core.tree import BVTree
from repro.errors import RecoveryError, SimulatedCrashError, StorageError
from repro.geometry.space import DataSpace
from repro.obs.events import OP_BEGIN, OP_END
from repro.obs.monitor import GuaranteeMonitor
from repro.obs.profile import OpProfiler
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
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
        page = data_page((1, (0.5,), "a"))
        page_id = store.allocate(page)
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
        page = data_page((1, (0.5,), "a"))
        page_id = store.allocate(page)
        before = store.wal_stats.appends
        store.write(page_id, page)
        assert store.wal_stats.appends == before
        store.close(checkpoint=False)

    def test_delta_records_removals(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        page = data_page((1, (0.5,), "a"), (2, (0.25,), "b"))
        page_id = store.allocate(page)
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
        return BVTree(space, data_capacity=4, fanout=4, store=store), store

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
        tracer = store.tracer
        op = tracer._next_op()
        tracer.emit(OP_BEGIN, name="insert")
        # Simulate the mutation the span would have made, then fail it.
        store.tracer.current_op = op
        store._begin_op(op)
        page = data_page((9, (0.9, 0.9), "doomed"))
        store.allocate(page)
        store._end_op(op, "insert", error=True)
        assert store._wal.length == length_before
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

    def test_tap_follows_tracer_rebinding(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        old = store.tracer
        new = Tracer()
        store.tracer = new
        assert store._op_tap in new.subscribers
        assert store._op_tap not in old.subscribers
        assert new.structural
        store.close(checkpoint=False)

    def test_op_tap_declares_its_kinds(self, tmp_path):
        store = DurableStore(tmp_path, sync="os")
        assert store._op_tap.kinds == frozenset({OP_BEGIN, OP_END})
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
        tree.store._dead = True  # type: ignore[attr-defined]

        recovered, report = open_durable_tree(tmp_path / "col", sync="os")
        assert recovered.layout == "columnar"
        survivors = len(recovered)
        assert 0 < survivors <= len(model)
        for p, v in list(model.items())[:survivors]:
            assert recovered.get(p) == v
        recovered.check(check_owners=True, check_occupancy=False)
        recovered.store.close(checkpoint=False)
