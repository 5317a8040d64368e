"""Unit tests for the snapshot/version layer: isolation, page copies, poison.

The properties the serving layer leans on, each pinned in isolation:
a pinned snapshot is frozen (split cascades invisible), version stores
are read-only, a failed op aborts and leaves the writer live while a
dead store disables it, and a failed all-or-nothing batch aborts
completely.
"""

import pytest

from repro.concurrency import (
    BatchAbortedError,
    Snapshot,
    TreeService,
    VersionStore,
    delete_op,
    insert_op,
)
from repro.core.tree import BVTree
from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    PageNotFoundError,
    SimulatedCrashError,
    StorageError,
)
from repro.storage.durable import create_durable_tree
from repro.storage.faults import FaultPlan

from tests.concurrency.conftest import (
    distinct_points,
    fail_inserts_of,
    make_space,
)
from tests.concurrency.lockstep import build_service


class TestSnapshotIsolation:
    def test_snapshot_does_not_see_later_insert(self, layout):
        service, _ = build_service(layout)
        service.insert((0.25, 0.25), "a")
        before = service.snapshot()
        service.insert((0.75, 0.75), "b")
        assert before.get((0.25, 0.25)) == "a"
        with pytest.raises(KeyNotFoundError):
            before.get((0.75, 0.75))
        assert service.get((0.75, 0.75)) == "b"

    def test_snapshot_does_not_see_later_delete(self, layout):
        service, _ = build_service(layout)
        service.insert((0.25, 0.25), "a")
        before = service.snapshot()
        service.delete((0.25, 0.25))
        assert before.get((0.25, 0.25)) == "a"
        assert not service.contains((0.25, 0.25))

    def test_snapshot_frozen_across_split_storm(self, layout):
        """The torn-cascade guard: a snapshot pinned just before a storm
        of splits (tiny capacities, many inserts) must answer from the
        old structure, byte-for-byte, and still materialize cleanly."""
        service, _ = build_service(layout)
        space = service.tree.space
        points = distinct_points(120, space, seed=7)
        for i, point in enumerate(points[:20]):
            service.insert(point, i)
        pinned = service.snapshot()
        frozen = dict(pinned.items())
        height_before = pinned.height
        for i, point in enumerate(points[20:], start=20):
            service.insert(point, i)
        assert service.tree.height > height_before  # the storm happened
        assert dict(pinned.items()) == frozen
        assert pinned.height == height_before
        for point in points[:20]:
            assert pinned.contains(point)
        for point in points[20:]:
            assert not pinned.contains(point)

    def test_each_commit_bumps_lsn_and_pins_its_prefix(self, layout):
        service, _ = build_service(layout)
        space = service.tree.space
        points = distinct_points(12, space, seed=3)
        snapshots = [service.snapshot()]
        for i, point in enumerate(points):
            service.insert(point, i)
            snapshots.append(service.snapshot())
        for k, snapshot in enumerate(snapshots):
            assert snapshot.lsn == k
            assert len(snapshot) == k
            assert {p for p, _ in snapshot.items()} == {
                tuple(p) for p in points[:k]
            }

    def test_range_and_knn_answer_from_the_pinned_version(self, layout):
        service, _ = build_service(layout)
        space = service.tree.space
        points = distinct_points(40, space, seed=11)
        for i, point in enumerate(points):
            service.insert(point, i)
        pinned = service.snapshot()
        expected_range = {
            p
            for p in map(tuple, points)
            if all(0.2 <= c <= 0.8 for c in p)
        }
        for point in distinct_points(40, space, seed=99):
            service.insert(point, -1, replace=True)
        result = pinned.range_query((0.2, 0.2), (0.8, 0.8))
        assert {tuple(p) for p, _ in result.records} == expected_range
        neighbours = pinned.nearest((0.5, 0.5), k=5)
        assert len(neighbours.neighbours) == 5
        assert {tuple(n.point) for n in neighbours.neighbours} <= set(
            map(tuple, points)
        )


class TestMaterialize:
    def test_materialized_tree_equals_snapshot_and_checks(self, layout):
        service, _ = build_service(layout)
        points = distinct_points(80, service.tree.space, seed=5)
        for i, point in enumerate(points):
            service.insert(point, i)
        pinned = service.snapshot()
        tree = pinned.materialize()
        assert sorted(
            (tuple(p), v) for p, v in tree.items()
        ) == sorted((tuple(p), v) for p, v in pinned.items())
        assert (tree.layout, tree.height, len(tree)) == (
            layout,
            pinned.height,
            len(pinned),
        )
        tree.check(check_occupancy=False, check_justification=False)


def test_snapshot_reads_are_the_tree_methods():
    # perfbench's traced pass wraps these through Snapshot.__dict__.
    for name in ("get", "range_query", "nearest"):
        assert Snapshot.__dict__[name] is BVTree.__dict__[name]


class TestVersionStoreReadOnly:
    def test_mutators_raise(self, layout):
        service, _ = build_service(layout)
        service.insert((0.5, 0.5), "a")
        store = service.snapshot().store
        assert isinstance(store, VersionStore)
        with pytest.raises(StorageError):
            store.allocate()
        with pytest.raises(StorageError):
            store.write(0, object())
        with pytest.raises(StorageError):
            store.free(0)

    def test_missing_page_raises_page_not_found(self, layout):
        service, _ = build_service(layout)
        store = service.snapshot().store
        with pytest.raises(PageNotFoundError):
            store.read(10_000)


class TestClonePage:
    def test_clone_is_independent(self, layout):
        service, _ = build_service(layout)
        points = distinct_points(3, service.tree.space, seed=1)
        for i, point in enumerate(points):
            service.insert(point, i)
        tree = service.tree
        live = tree.store.read(tree.root_page)
        copy = live.clone()
        assert type(copy) is type(live)
        assert len(copy) == len(live)
        space = tree.space
        extra = distinct_points(1, space, seed=77)[0]
        live.insert(space.point_path(extra), tuple(extra), "x")
        assert len(copy) == len(live) - 1

    def test_index_node_clone_shares_entries(self, layout):
        service, _ = build_service(layout)
        for i, point in enumerate(distinct_points(40, service.tree.space)):
            service.insert(point, i)
        tree = service.tree
        node = tree.store.read(tree.root_page)
        copy = node.clone()
        assert type(copy) is type(node)
        assert all(a is b for a, b in zip(copy.entries, node.entries))
        assert len(copy.entries) == len(node.entries)
        # Containers are the copy's own: removing an entry from it (by
        # identity, as the tree does) leaves the original whole.
        victim = copy.entries[-1]
        copy.remove(victim)
        assert victim in node.entries and victim not in copy.entries
        assert node.find(victim.key, victim.level) is victim
        assert copy.find(victim.key, victim.level) is None

    def test_materialize_leaves_the_live_entries_alone(self, layout):
        service, _ = build_service(layout)
        for i, point in enumerate(distinct_points(60, service.tree.space)):
            service.insert(point, i)
        tree = service.tree
        store = tree.store
        before = {
            pid: [(e.key, e.level, e.page) for e in store.peek(pid).entries]
            for pid in store.page_ids()
            if hasattr(store.peek(pid), "entries")
        }
        copy = service.snapshot().materialize()
        after = {
            pid: [(e.key, e.level, e.page) for e in store.peek(pid).entries]
            for pid in before
        }
        assert after == before
        live_entries = {
            id(e) for pid in before for e in store.peek(pid).entries
        }
        for pid in copy.store.page_ids():
            for entry in getattr(copy.store.peek(pid), "entries", ()):
                assert id(entry) not in live_entries
        tree.check(check_owners=True)


class TestPoisonSemantics:
    def test_validation_errors_do_not_poison(self, layout):
        service, _ = build_service(layout)
        service.insert((0.5, 0.5), "a")
        with pytest.raises(DuplicateKeyError):
            service.insert((0.5, 0.5), "b")
        with pytest.raises(KeyNotFoundError):
            service.delete((0.1, 0.9))
        assert not service.poisoned
        assert service.lsn == 1
        service.insert((0.25, 0.75), "c")  # the writer is still live
        assert service.lsn == 2

    def test_torn_write_poisons_and_readers_keep_last_version(
        self, layout, monkeypatch, tmp_path
    ):
        service, _ = build_service(layout)
        points = distinct_points(10, service.tree.space, seed=2)
        for i, point in enumerate(points):
            service.insert(point, i)
        pinned = service.snapshot()
        committed = dict(pinned.items())

        # Fail the store mid-mutation: the write lands before the
        # failure, so the op had changed pages.  Its transaction aborts
        # and puts them back; the writer stays live.
        inner = service.tree.store
        real_write = inner.write

        def torn_write(page_id, content):
            real_write(page_id, content)
            raise RuntimeError("injected failure after a page write")

        monkeypatch.setattr(inner, "write", torn_write)
        extra = distinct_points(1, service.tree.space, seed=55)[0]
        with pytest.raises(RuntimeError):
            service.insert(extra, "boom")
        monkeypatch.undo()

        assert not service.poisoned
        assert dict(service.tree.items()) == committed
        service.tree.check(check_owners=True)
        assert dict(service.snapshot().items()) == committed
        assert service.insert(extra, "retried") == pinned.lsn + 1

        # Only a store death poisons: a torn WAL tail kills the durable
        # store, and readers keep the last version it published.
        tree = create_durable_tree(
            tmp_path, make_space(), data_capacity=4, fanout=4,
            layout=layout, sync="os",
            faults=FaultPlan(crash_after_appends=40, tail="torn"),
        )
        service = TreeService(tree)
        with pytest.raises(SimulatedCrashError):
            for i, point in enumerate(points * 10):
                service.insert(point, i, replace=True)
                pinned = service.snapshot()
        assert service.poisoned
        with pytest.raises(StorageError):
            service.insert((0.9, 0.9), "after")
        assert dict(service.snapshot().items()) == dict(pinned.items())
        assert service.snapshot().lsn == pinned.lsn


class TestBatchSemantics:
    def test_apply_batch_is_all_or_nothing(self, layout):
        service, _ = build_service(layout)
        points = distinct_points(30, service.tree.space, seed=4)
        for i, point in enumerate(points[:25]):
            service.insert(point, i)
        lsn_before = service.lsn
        before = dict(service.snapshot().items())
        bad = [
            insert_op(points[25], 100),
            insert_op(points[26], 101),
            delete_op(distinct_points(1, service.tree.space, seed=500)[0]),
            insert_op(points[27], 103),
        ]
        with pytest.raises(BatchAbortedError) as err:
            service.apply_batch(bad)
        assert err.value.index == 2
        assert isinstance(err.value.cause, KeyNotFoundError)
        assert service.lsn == lsn_before
        assert dict(service.snapshot().items()) == before
        assert not service.poisoned

        lsn = service.apply_batch(
            [insert_op(points[25], 100), delete_op(points[0])]
        )
        assert lsn == lsn_before + 1
        now = service.snapshot()
        assert now.contains(points[25])
        assert not now.contains(points[0])

    def test_apply_ops_commits_independent_outcomes(self, layout):
        service, _ = build_service(layout)
        a, b = distinct_points(2, service.tree.space, seed=6)
        service.insert(a, "a")
        outcomes, lsn = service.apply_ops(
            [
                insert_op(a, "dup"),  # duplicate: fails
                insert_op(b, "b"),  # commits
                delete_op(a),  # commits
            ]
        )
        assert [ok for ok, _ in outcomes] == [False, True, True]
        assert isinstance(outcomes[0][1], DuplicateKeyError)
        assert lsn == 2  # one publication for the whole group
        snapshot = service.snapshot()
        assert snapshot.contains(b)
        assert not snapshot.contains(a)

    def test_apply_ops_keeps_any_failure_to_its_own_op(
        self, layout, monkeypatch
    ):
        service, _ = build_service(layout)
        a, b, c = distinct_points(3, service.tree.space, seed=8)
        service.insert(a, "a")
        fail_inserts_of(service.tree, monkeypatch, "boom")
        outcomes, lsn = service.apply_ops(
            [insert_op(b, "b"), insert_op(c, "boom"), delete_op(a)]
        )
        assert [ok for ok, _ in outcomes] == [True, False, True]
        assert isinstance(outcomes[1][1], RuntimeError)
        assert lsn == 2  # one publication for the whole group
        assert not service.poisoned
        assert dict(service.snapshot().items()) == {b: "b"}
        assert dict(service.tree.items()) == {b: "b"}
        service.tree.check(check_owners=True)
