"""Free-running threads: real races, post-hoc linearizability checking.

:func:`repro.concurrency.run_threads` races one writer thread against
continuously-pinning reader threads, then rebuilds an oracle from the
committed log and checks every observation against the prefix its LSN
names.  Unlike the deterministic schedules these runs genuinely
interleave on the GIL's preemption points — the writer is mid-split
while readers pin — so they exercise the publication path's atomicity
for real.
"""

import random

import pytest

from repro.concurrency import TreeService
from repro.core.tree import BVTree
from repro.storage import BufferPool, PageStore

from tests.concurrency.conftest import distinct_points, make_space
from tests.concurrency.lockstep import build_service, run_threads


def mixed_ops(points, seed, delete_fraction=0.3, replace_fraction=0.2):
    """A wire-format op list over path-distinct points."""
    rng = random.Random(seed)
    ops = []
    live = []
    for i, point in enumerate(points):
        roll = rng.random()
        if live and roll < delete_fraction:
            victim = live.pop(rng.randrange(len(live)))
            ops.append({"op": "delete", "point": list(victim)})
            # Half the deleted points come back later with a new value.
            if rng.random() < 0.5:
                ops.append({
                    "op": "insert",
                    "point": list(victim),
                    "value": 10_000 + i,
                })
                live.append(victim)
        elif live and roll < delete_fraction + replace_fraction:
            target = live[rng.randrange(len(live))]
            ops.append({
                "op": "insert",
                "point": list(target),
                "value": 20_000 + i,
                "replace": True,
            })
        else:
            ops.append({"op": "insert", "point": list(point), "value": i})
            live.append(point)
    return ops


class TestThreadedLinearizability:
    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_ops_linearize(self, layout, seed):
        service, _ = build_service(layout)
        points = distinct_points(120, service.tree.space, seed=seed)
        ops = mixed_ops(points, seed=seed + 50)
        run_threads(
            service,
            ops,
            readers=4,
            probe_points=[list(p) for p in points[:10]],
        )

    def test_from_a_preloaded_tree(self, layout):
        """Racing against a tree with existing structure (height > 0),
        so the very first commits already rewrite index nodes."""
        service, _ = build_service(layout)
        points = distinct_points(200, service.tree.space, seed=9)
        for i, point in enumerate(points[:120]):
            service.insert(point, i)
        ops = mixed_ops(points[120:], seed=77, delete_fraction=0.0)
        run_threads(service, ops, readers=4)

    def test_buffered_store_under_writer_lock(self):
        """The writer-side store may be a BufferPool: only the writer
        touches the live store, under the writer lock, so the pool's
        cache bookkeeping stays consistent while readers race it on
        snapshots."""
        space = make_space()
        pool = BufferPool(PageStore(), capacity=8)
        tree = BVTree(
            space, data_capacity=4, fanout=4, store=pool, layout="object"
        )
        service = TreeService(tree)
        points = distinct_points(100, space, seed=21)
        ops = mixed_ops(points, seed=22)
        run_threads(service, ops, readers=3)
        assert pool.stats.reads > 0
        assert min(pool.stats.hits, pool.stats.misses) >= 0
