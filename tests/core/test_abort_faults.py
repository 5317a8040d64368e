"""A failed tree op aborts: fault injection at every store call.

Each insert and delete of a seeded workload is first run whole inside a
tree transaction that then aborts, to count its store calls
(``allocate``/``read``/``writable``/``write``/``free``), and then with
a fault at each of them, raised once before the call and once after it
landed.  After every fault the tree and its store must read exactly as
before the op (:func:`digest`), and the op, run again, must get through
and leave a tree that passes ``check(check_owners=True)``.  The workload splits data and index
pages, promotes, demotes and merges, in memory and on a durable store,
on both page layouts; on the durable store a fault also leaves the WAL
as it was, and recovery rebuilds the live tree with its size classes.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.stats import OpCounters
from repro.core.tree import BVTree
from repro.errors import TreeInvariantError
from repro.geometry.space import DataSpace
from repro.storage.durable import create_durable_tree, open_durable_tree
from repro.storage.durable.codec import encode_content

LAYOUTS = ("object", "columnar")
SEEDS = (1, 2, 3)
CALLS = ("allocate", "read", "writable", "write", "free")


class Fault(Exception):
    """The injected failure."""


class Injector:
    """Wraps a store's page calls; the armed call raises :class:`Fault`,
    before it runs or (``after``) once it has run."""

    def __init__(self, store):
        self.calls = 0
        self.armed = 0
        self.after = False
        for name in CALLS:
            setattr(store, name, self._wrap(getattr(store, name)))

    def arm(self, call: int, after: bool) -> None:
        self.calls, self.armed, self.after = 0, call, after

    def _wrap(self, real):
        def call(*args, **kwargs):
            self.calls += 1
            armed = self.calls == self.armed
            if armed and not self.after:
                raise Fault(real.__name__)
            result = real(*args, **kwargs)  # writable counts its read too
            if armed:
                raise Fault(real.__name__)
            return result

        return call


def digest(tree: BVTree, content=encode_content) -> tuple:
    """Everything an aborted op must leave as it found it, each page
    read through ``content``."""
    store = tree.store
    pages = {
        pid: (store.size_class_of(pid), content(store.peek(pid)))
        for pid in store.page_ids()
    }
    keys = {
        level: {key: (id(entry), entry.page) for key, entry in entries.items()}
        for level, entries in tree.keys.items()
        if entries
    }
    return (
        pages,
        tree.root_page,
        tree.height,
        tree.count,
        frozenset(tree.merge_retry),
        keys,
        store._next_id,
        store.live_pages(),
        store.live_bytes(),
    )


def shape(tree: BVTree) -> tuple:
    """:func:`digest` with the registry in its iteration order, by page
    instead of by object, to compare two trees."""
    keys = {
        level: [(key, entry.page) for key, entry in entries.items()]
        for level, entries in tree.keys.items()
        if entries
    }
    return digest(tree)[:5] + (keys,) + digest(tree)[6:]


def wal_mark(tree: BVTree) -> tuple | None:
    store = tree.store
    wal_seq = getattr(store, "wal_seq", None)
    if wal_seq is None:
        return None
    return wal_seq, os.path.getsize(store.wal_path)


def workload(space: DataSpace, seed: int) -> list[tuple[str, tuple]]:
    """Inserts that split down to height 3, then deletes that merge."""
    rng = random.Random(seed)
    points, seen = [], set()
    while len(points) < 120:
        point = (rng.random(), rng.random())
        if space.point_path(point) not in seen:
            seen.add(space.point_path(point))
            points.append(point)
    deletes = rng.sample(points, 100)
    return [("insert", p) for p in points] + [("delete", p) for p in deletes]


def run(tree: BVTree, verb: str, point: tuple) -> None:
    if verb == "insert":
        tree.insert(point, verb)
    else:
        tree.delete(point)


def drive(tree: BVTree, ops) -> tuple[int, OpCounters]:
    """Run each op under a fault at each of its store calls; return the
    number of faults and the counters of the ops that got through.

    After each fault the store must hold the very page objects it held
    before the op (``digest`` by ``id``); once every fault has run, their
    encoded contents must be as before too, so no failed attempt changed
    a committed page in place.
    """
    injector = Injector(tree.store)
    faults = 0
    seen = OpCounters()
    for verb, point in ops:
        before, objects, wal = digest(tree), digest(tree, id), wal_mark(tree)
        # Count the op's store calls in a whole run that then aborts.
        injector.arm(0, False)
        with pytest.raises(Fault):
            with tree.transaction(verb):
                run(tree, verb, point)
                raise Fault("after the op")
        calls = injector.calls
        for call in range(1, calls + 1):
            for after in (False, True):
                injector.arm(call, after)
                with pytest.raises(Fault):
                    run(tree, verb, point)
                faults += 1
                assert digest(tree, id) == objects, (verb, point, call, after)
                assert wal_mark(tree) == wal
        assert digest(tree) == before
        injector.arm(0, False)
        counters = tree.stats.snapshot()
        run(tree, verb, point)
        assert injector.calls == calls
        for name, count in vars(tree.stats.delta(counters)).items():
            setattr(seen, name, getattr(seen, name) + count)
        tree.check(check_owners=True)
    return faults, seen


def assert_every_kind(seen: OpCounters) -> None:
    for kind in ("data_splits", "index_splits", "promotions", "merges"):
        assert getattr(seen, kind) > 0, (kind, seen)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_fault_in_memory_aborts_the_op(layout, seed):
    space = DataSpace.unit(2, resolution=8)
    tree = BVTree(space, data_capacity=4, fanout=4, layout=layout)
    faults, seen = drive(tree, workload(space, seed))
    assert faults > 1000
    assert_every_kind(seen)
    assert tree.count == 20
    # The aborts left no trace: a twin that never failed is the same
    # tree, down to the order of its key registry.
    twin = BVTree(space, data_capacity=4, fanout=4, layout=layout)
    for verb, point in workload(space, seed):
        run(twin, verb, point)
    assert shape(twin) == shape(tree)


@pytest.mark.parametrize("seed", SEEDS[:1])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_fault_on_a_durable_store_aborts_the_op(tmp_path, layout, seed):
    space = DataSpace.unit(2, resolution=8)
    tree = create_durable_tree(
        tmp_path, space, data_capacity=4, fanout=4, layout=layout, sync="os"
    )
    faults, seen = drive(tree, workload(space, seed))
    assert faults > 1000
    assert_every_kind(seen)
    live = dict(tree.items())
    classes = {
        sc: stats.page_bytes for sc, stats in tree.store.class_stats().items()
    }
    live_bytes = tree.store.live_bytes()
    tree.store.close(checkpoint=False)
    recovered, _ = open_durable_tree(tmp_path)
    try:
        assert dict(recovered.items()) == live
        recovered.check(check_owners=True)
        assert {
            sc: stats.page_bytes
            for sc, stats in recovered.store.class_stats().items()
        } == classes
        assert recovered.store.live_bytes() == live_bytes
    finally:
        recovered.store.close(checkpoint=False)


class TestTreeTransaction:
    def build(self):
        space = DataSpace.unit(2, resolution=8)
        tree = BVTree(space, data_capacity=4, fanout=4)
        for verb, point in workload(space, 4)[:40]:
            run(tree, verb, point)
        return tree

    def test_ops_inside_one_transaction_abort_together(self):
        tree = self.build()
        before = digest(tree), shape(tree)
        extra = [(0.01 * i + 0.005, 0.93) for i in range(30)]
        with pytest.raises(Fault):
            with tree.transaction("batch"):
                for point in extra:
                    tree.insert(point)
                assert tree.count == 70
                raise Fault("after the batch")
        assert (digest(tree), shape(tree)) == before
        for point in extra:
            tree.insert(point)
        tree.check(check_owners=True)

    def test_nested_transactions_join_the_outermost(self):
        tree = self.build()
        before = digest(tree), shape(tree)
        with pytest.raises(Fault):
            with tree.transaction("batch"):
                tree.insert((0.005, 0.005))
                with tree.transaction("inner"):
                    tree.insert((0.995, 0.995))
                raise Fault()
        assert (digest(tree), shape(tree)) == before

    def test_unregistered_entries_come_back(self):
        tree = self.build()
        registry = {
            level: list(entries.items())
            for level, entries in tree.keys.items()
        }
        with pytest.raises(Fault):
            with tree.transaction("delete"):
                for level, entries in registry.items():
                    for _, entry in entries[::2] + entries[1::2]:
                        tree.unregister_entry(entry)
                raise Fault()
        # The same entries, in the same order.
        assert {
            level: list(entries.items())
            for level, entries in tree.keys.items()
        } == registry
        with pytest.raises(TreeInvariantError, match="registered twice"):
            tree.register_entry(registry[0][0][1])
