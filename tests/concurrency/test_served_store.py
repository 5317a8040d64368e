"""A served tree keeps its own store.

:class:`TreeService` reads the store's transaction record after each
operation instead of swapping a wrapper in as ``tree.store``, so every
tool that takes the tree's store — a profiler, ``close``, ``checkpoint``
— works the same on a served tree as on a bare one.
"""

import random

import pytest

from repro.concurrency import (
    BatchAbortedError,
    TreeService,
    delete_op,
    insert_op,
)
from repro.core.tree import BVTree
from repro.obs.profile import OpProfiler
from repro.storage.buffer import BufferPool
from repro.storage.durable import create_durable_tree, open_durable_tree
from repro.storage.pager import PageStore

from tests.concurrency.conftest import distinct_points, make_space


def small_tree(store=None):
    return BVTree(make_space(), data_capacity=4, fanout=4, store=store)


def test_service_leaves_the_tree_its_store():
    store = PageStore(1024)
    tree = small_tree(store)
    service = TreeService(tree)
    service.insert((0.25, 0.25), "a")
    assert service.tree.store is store


def test_profiler_attaches_to_a_served_tree():
    tree = small_tree()
    service = TreeService(tree)
    with OpProfiler(tree) as profiler:
        service.insert((0.25, 0.25), "a")
    assert profiler.profile("insert").ops == 1


def test_served_buffer_pool_publishes_every_touched_page():
    tree = small_tree(BufferPool(PageStore(1024), capacity=8))
    service = TreeService(tree)
    points = distinct_points(40, tree.space, seed=11)
    for i, point in enumerate(points):
        service.insert(point, i)
    for point in points[::2]:
        service.delete(point)
    snap = service.snapshot()
    assert sorted(v for _, v in snap.items()) == list(range(1, 40, 2))


def test_durable_store_closes_without_unwrapping(tmp_path):
    tree = create_durable_tree(
        tmp_path, make_space(), data_capacity=4, fanout=4, sync="os"
    )
    service = TreeService(tree)
    points = distinct_points(30, tree.space, seed=12)
    for i, point in enumerate(points):
        service.insert(point, i)
    service.checkpoint()
    service.delete(points[0])
    tree.store.close()
    recovered, _ = open_durable_tree(tmp_path, sync="os")
    try:
        assert recovered.count == 29
        assert recovered.get(points[1]) == 1
    finally:
        recovered.store.close()


def _served_wal(directory, layout, aborts):
    """The WAL of a seeded durable service workload: a bulk load, then
    groups that hold missing-key deletes and duplicate inserts, then
    (with ``aborts``) batches that change pages and fail at their end."""
    tree = create_durable_tree(
        directory, make_space(), data_capacity=4, fanout=4, layout=layout,
        sync="os",
    )
    service = TreeService(tree)
    rng = random.Random(17)
    points = distinct_points(500, tree.space, seed=13)
    live, fresh = points[:300], points[300:]
    service.bulk_load([(p, i) for i, p in enumerate(live)])
    missing = fresh.pop()
    for group in range(12):
        ops = [delete_op(missing), insert_op(rng.choice(live), "dup")]
        for _ in range(6):
            if rng.random() < 0.5:
                point = fresh.pop()
                ops.append(insert_op(point, group))
                live.append(point)
            else:
                ops.append(delete_op(live.pop(rng.randrange(len(live)))))
        outcomes, _ = service.apply_ops(ops)
        assert [ok for ok, _ in outcomes] == [False, False] + [True] * 6
    if aborts:
        for size in (3, 8, 20):
            batch = [insert_op(p, "aborted") for p in fresh[-size:]]
            batch += [delete_op(p) for p in rng.sample(live, size)]
            batch.append(delete_op(missing))
            with pytest.raises(BatchAbortedError):
                service.apply_batch(batch)
    items = dict(tree.items())
    tree.check(check_owners=True)
    tree.store.close(checkpoint=False)
    return (directory / "wal.log").read_bytes(), items


def test_aborted_batches_leave_the_wal_as_it_was(tmp_path, layout):
    wal, items = _served_wal(tmp_path / "plain", layout, aborts=False)
    assert _served_wal(tmp_path / "aborted", layout, aborts=True) == (
        wal,
        items,
    )
