"""Integration: the durable store composed with the rest of the stack.

Two compositions the storage layer promises to support unchanged:

- ``BVTree`` over ``BufferPool`` over ``DurableStore`` — the pool is a
  drop-in decorator, so every query answer and every structural counter
  must match a plain in-memory tree bit for bit, while the WAL quietly
  records everything underneath;
- ``repro.storage.snapshot`` over a *recovered* tree — a tree rebuilt
  from a crashed directory must snapshot and reload like any other.
"""

import json
import random

import pytest

from repro.core.entry import Entry
from repro.core.tree import BVTree
from repro.errors import RecoveryError, SimulatedCrashError
from repro.geometry.region import RegionKey
from repro.geometry.space import DataSpace
from repro.storage.buffer import BufferPool
from repro.storage.durable.recovery import (
    TREE_META_KEY,
    create_durable_tree,
    open_durable_tree,
    rebuild_tree,
    recover_store,
)
from repro.storage.durable.store import DurableStore
from repro.storage.durable.wal import REC_WRITE, base_type, scan_wal
from repro.storage.faults import FaultPlan
from repro.storage.pager import PageStore
from repro.storage.snapshot import dumps_tree, loads_tree
from repro.workloads import churn
from tests.conftest import make_points


def soak_ops(n=1200, seed=81):
    space = DataSpace.unit(2, resolution=16)
    seen = set()
    points = []
    for point in make_points(n, 2, seed=seed):
        path = space.point_path(point)
        if path not in seen:
            seen.add(path)
            points.append(point)
    ops = []
    value = 0
    for verb, point in churn(points, delete_fraction=0.35, seed=seed):
        ops.append((verb, point, value))
        value += 1
    return space, ops


def drive(tree, ops):
    for verb, point, value in ops:
        if verb == "insert":
            tree.insert(point, value, replace=True)
        else:
            tree.delete(point)


class TestDurableBehindBufferPool:
    def build_pair(self, tmp_path, capacity=24):
        space, ops = soak_ops()
        durable = DurableStore(tmp_path / "store", sync="os")
        pool = BufferPool(durable, capacity=capacity)
        buffered = BVTree(
            space, data_capacity=4, fanout=4, store=pool, layout="object"
        )
        plain = BVTree(space, data_capacity=4, fanout=4)
        return buffered, plain, pool, durable, ops

    def test_identical_answers_and_counters(self, tmp_path):
        buffered, plain, pool, durable, ops = self.build_pair(tmp_path)
        base_buffered = buffered.stats.snapshot()
        base_plain = plain.stats.snapshot()
        drive(buffered, ops)
        drive(plain, ops)

        assert buffered.count == plain.count
        assert buffered.height == plain.height
        assert sorted(buffered.items()) == sorted(plain.items())
        for box in (
            ((0.0, 0.0), (1.0, 1.0)),
            ((0.2, 0.1), (0.7, 0.6)),
            ((0.45, 0.45), (0.55, 0.55)),
        ):
            assert sorted(buffered.range_query(*box).records) == sorted(
                plain.range_query(*box).records
            )
        live = [p for p, _ in plain.items()]
        for point in random.Random(82).sample(live, min(60, len(live))):
            assert buffered.get(point) == plain.get(point)
        # The pool and the WAL must not change *what* the tree does —
        # every split, merge and redistribution happens in the same
        # place, so the structural counters agree exactly.
        assert buffered.stats.delta(base_buffered) == plain.stats.delta(
            base_plain
        )
        buffered.check(sample_points=40, check_occupancy=False)
        durable.close(checkpoint=False)

    def test_pool_actually_caches_and_wal_actually_logs(self, tmp_path):
        buffered, _, pool, durable, ops = self.build_pair(tmp_path)
        drive(buffered, ops[:400])
        assert pool.stats.hits > 0
        assert durable.wal_stats.appends > 0
        assert durable.wal_stats.commits > 0
        durable.close(checkpoint=False)


class TestSnapshotOfRecoveredTree:
    def test_recovered_tree_snapshots_and_reloads(self, tmp_path):
        space, ops = soak_ops(n=600, seed=83)
        tree = create_durable_tree(
            tmp_path / "crashing",
            space,
            data_capacity=4,
            fanout=4,
            faults=FaultPlan(
                crash_after_appends=240, tail="torn", torn_fraction=0.4
            ),
            sync="os",
        )
        with pytest.raises(SimulatedCrashError):
            drive(tree, ops)

        recovered, report = open_durable_tree(tmp_path / "crashing", sync="os")
        assert recovered.count > 0

        clone = loads_tree(dumps_tree(recovered))
        assert clone.count == recovered.count
        assert sorted(clone.items()) == sorted(recovered.items())
        box = ((0.1, 0.1), (0.9, 0.9))
        assert sorted(clone.range_query(*box).records) == sorted(
            recovered.range_query(*box).records
        )
        clone.check(check_occupancy=False, check_justification=False)
        # The round trip composes: a snapshot of the clone reloads to
        # the same record set again (page ids are allocation artifacts,
        # so the JSON itself is not compared byte for byte).
        grandchild = loads_tree(dumps_tree(clone))
        assert sorted(grandchild.items()) == sorted(recovered.items())
        recovered.store.close(checkpoint=False)


@pytest.mark.parametrize("layout", ["object", "columnar"])
def test_snapshot_header_is_the_durable_tree_record(tmp_path, layout):
    space = DataSpace([(-10.0, 10.0), (0.0, 5.0)], resolution=14)
    tree = create_durable_tree(
        tmp_path / "d",
        space,
        data_capacity=5,
        fanout=7,
        policy="uniform",
        page_bytes=512,
        layout=layout,
        sync="os",
    )
    rng = random.Random(84)
    for i in range(60):
        tree.insert((rng.uniform(-10, 10), rng.uniform(0, 5)), i)
    snapshot = json.loads(dumps_tree(tree))
    tree.store.close(checkpoint=False)
    store, _ = recover_store(tmp_path / "d", sync="os")
    header = {key: snapshot[key] for key in ("space", "policy", "layout")}
    assert header == store.meta[TREE_META_KEY]
    store.close(checkpoint=False)


class TestRebuildRejectsCorruptImages:
    """One test per check :func:`rebuild_tree` makes on a recovered page
    graph, matched on the message each one raises."""

    @pytest.fixture
    def tree(self, tmp_path):
        tree = create_durable_tree(
            tmp_path / "d",
            DataSpace.unit(2, resolution=16),
            data_capacity=4,
            fanout=8,
            sync="os",
        )
        for i, p in enumerate(make_points(12, 2, seed=85)):
            tree.insert(p, i, replace=True)
        assert tree.height == 1
        return tree

    def rebuild(self, tree):
        directory = tree.store.directory
        tree.store.close(checkpoint=False)
        store, _ = recover_store(directory, sync="os")
        try:
            return rebuild_tree(store)
        finally:
            store.close(checkpoint=False)

    def fresh_key(self, tree):
        return RegionKey.from_bits("1" * tree.space.path_bits)

    def test_clean_image_rebuilds(self, tree):
        assert self.rebuild(tree).count == 12

    def test_two_root_candidates(self, tree):
        tree.store.allocate(tree.make_data_page())
        with pytest.raises(RecoveryError, match="has 2 root candidates"):
            self.rebuild(tree)

    def test_page_reached_twice(self, tree):
        root = tree.store.read(tree.root_page)
        shared = root.entries[0].page
        root.add(Entry(self.fresh_key(tree), 0, shared))
        tree.store.write(tree.root_page, root)
        with pytest.raises(
            RecoveryError, match=f"recovered image reaches page {shared} twice"
        ):
            self.rebuild(tree)

    def test_orphan_page(self, tree):
        # An index node that references only itself: no root candidate,
        # but unreachable from the root.
        loop = tree.store.allocate(tree.make_index_node(1))
        tree.store.write(
            loop, tree.make_index_node(1, [Entry(self.fresh_key(tree), 0, loop)])
        )
        with pytest.raises(
            RecoveryError,
            match=f"has 1 orphan pages unreachable from root {tree.root_page}",
        ):
            self.rebuild(tree)

    def test_payload_that_is_not_a_node(self, tree):
        victim = tree.store.read(tree.root_page).entries[0].page
        tree.store.write(victim, "junk")
        with pytest.raises(
            RecoveryError,
            match=f"recovered page {victim} holds str, not a tree node",
        ):
            self.rebuild(tree)


class TestWritesAfterReopen:
    @pytest.mark.parametrize("layout", ["object", "columnar"])
    def test_first_write_after_reopen_logs_a_delta(self, tmp_path, layout):
        space = DataSpace.unit(2, resolution=16)
        points = make_points(202, 2, seed=12)
        tree = create_durable_tree(
            tmp_path, space, data_capacity=8, fanout=8, layout=layout, sync="os"
        )
        tree.bulk_load([(p, i) for i, p in enumerate(points[:200])])
        tree.store.close()
        tree, _ = open_durable_tree(tmp_path, sync="os")
        store = tree.store
        seq = store.wal_seq
        tree.insert(points[200], "kept")
        store._wal.flush()
        logged = [
            payload
            for record_seq, rtype, payload in scan_wal(store.wal_path).records
            if record_seq > seq and base_type(rtype) == REC_WRITE
        ]
        # The data page existed before the reopen: its pre-image is the
        # checkpointed object, so even its first write is a delta.
        assert [p["dk"] for p in logged if "dk" in p] == [1]
        assert all(p["c"]["k"] == "index" for p in logged if "c" in p)
        expected = sorted(tree.items())
        # Crash on the next op's first append, tearing it: recovery
        # keeps the insert and nothing of the torn op.
        store.faults.crash_after_appends = store.faults.appends_seen + 1
        store.faults.tail = "torn"
        with pytest.raises(SimulatedCrashError):
            tree.insert(points[201], "lost")
        recovered, _ = open_durable_tree(tmp_path, sync="os")
        assert sorted(recovered.items()) == expected
        recovered.store.close(checkpoint=False)
