"""Integration: the durable store composed with the rest of the stack.

Two compositions the storage layer promises to support unchanged:

- ``BVTree`` over ``BufferPool`` over ``DurableStore`` — the pool is a
  drop-in decorator, so every query answer and every structural counter
  must match a plain in-memory tree bit for bit, while the WAL quietly
  records everything underneath;
- ``repro.storage.snapshot`` over a *recovered* tree — a tree rebuilt
  from a crashed directory must snapshot and reload like any other.
"""

import random

import pytest

from repro.core.tree import BVTree
from repro.errors import SimulatedCrashError
from repro.geometry.space import DataSpace
from repro.storage.buffer import BufferPool
from repro.storage.durable.recovery import (
    create_durable_tree,
    open_durable_tree,
)
from repro.storage.durable.store import DurableStore
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
