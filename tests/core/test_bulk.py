"""Tests for bottom-up bulk loading."""

import gc
import hashlib
import random
import tracemalloc

import pytest

from repro.errors import DuplicateKeyError, ReproError
from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.obs.events import DATA_SPLIT
from repro.storage.snapshot import dumps_tree
from repro.workloads.generators import clustered, uniform
from tests.conftest import make_points


def build_pair(space, points, data_capacity=6, fanout=6):
    """The same records loaded incrementally and in bulk."""
    records = [(p, i) for i, p in enumerate(points)]
    incremental = BVTree(space, data_capacity=data_capacity, fanout=fanout)
    for point, value in records:
        incremental.insert(point, value, replace=True)
    bulk = BVTree(space, data_capacity=data_capacity, fanout=fanout)
    bulk.bulk_load(records, replace=True)
    return incremental, bulk


class TestBulkLoadBasics:
    def test_count_and_lookup(self, unit2):
        points = make_points(500, 2, seed=3)
        tree = BVTree(unit2, data_capacity=8, fanout=8)
        loaded = tree.bulk_load([(p, i) for i, p in enumerate(points)])
        assert loaded == len(points) == tree.count
        for i, p in enumerate(points):
            assert tree.get(p) == i
            assert tree.get_fast(p) == i

    def test_empty_input(self, unit2):
        tree = BVTree(unit2)
        assert tree.bulk_load([]) == 0
        assert tree.count == 0
        assert len(tree.range_query((0.0, 0.0), (1.0, 1.0))) == 0

    def test_small_input_stays_in_root(self, unit2):
        tree = BVTree(unit2, data_capacity=8, fanout=8)
        tree.bulk_load([((0.1 * i, 0.2), i) for i in range(5)])
        assert tree.height == 0
        assert tree.stats.data_splits == 0
        tree.check(check_owners=True)

    def test_accepts_iterator_input(self, unit2):
        tree = BVTree(unit2, data_capacity=8, fanout=8)
        records = (((i / 64, (i * 7 % 64) / 64), i) for i in range(64))
        assert tree.bulk_load(records) == 64

    def test_invariants_hold(self, unit2):
        tree = BVTree(unit2, data_capacity=6, fanout=6)
        tree.bulk_load([(p, i) for i, p in enumerate(make_points(1200, 2))])
        tree.check(check_owners=True, sample_points=200)

    def test_occupancy_guarantee(self, unit2):
        tree = BVTree(unit2, data_capacity=9, fanout=9)
        tree.bulk_load([(p, i) for i, p in enumerate(make_points(2000, 2))])
        stats = tree.tree_stats()
        assert stats.min_data_occupancy >= tree.policy.min_data_occupancy()

    def test_three_dimensional(self, unit3):
        incremental, bulk = build_pair(unit3, make_points(700, 3, seed=9))
        bulk.check(check_owners=True)
        assert bulk.count == incremental.count


class TestBulkLoadContract:
    def test_rejects_nonempty_tree(self, unit2):
        tree = BVTree(unit2)
        tree.insert((0.5, 0.5), "x")
        with pytest.raises(ReproError):
            tree.bulk_load([((0.1, 0.1), "y")])

    def test_duplicate_paths_raise_without_replace(self, unit2):
        tree = BVTree(unit2)
        with pytest.raises(DuplicateKeyError):
            tree.bulk_load([((0.5, 0.5), "a"), ((0.5, 0.5), "b")])

    def test_replace_keeps_last_record_in_input_order(self, unit2):
        tree = BVTree(unit2)
        tree.bulk_load(
            [((0.5, 0.5), "a"), ((0.25, 0.25), "m"), ((0.5, 0.5), "b")],
            replace=True,
        )
        assert tree.count == 2
        assert tree.get((0.5, 0.5)) == "b"

    def test_usable_after_clear(self, unit2):
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        points = make_points(300, 2, seed=5)
        tree.bulk_load([(p, i) for i, p in enumerate(points)])
        tree.clear()
        assert tree.bulk_load([(p, i) for i, p in enumerate(points)]) == len(
            points
        )
        tree.check(check_owners=True)

    def test_counters(self, unit2):
        tree = BVTree(unit2, data_capacity=6, fanout=6)
        tree.bulk_load([(p, i) for i, p in enumerate(make_points(400, 2))])
        assert tree.stats.bulk_loaded == 400
        assert tree.stats.inserts == 0
        assert tree.stats.data_splits > 0


class TestBulkMatchesIncremental:
    def test_query_equivalence(self, unit2):
        incremental, bulk = build_pair(unit2, make_points(900, 2, seed=13))
        rng = random.Random(17)
        for _ in range(30):
            lows = tuple(rng.uniform(0, 0.8) for _ in range(2))
            highs = tuple(lo + rng.uniform(0.05, 0.25) for lo in lows)
            a = incremental.range_query(lows, highs)
            b = bulk.range_query(lows, highs)
            assert sorted(a.records) == sorted(b.records)

    def test_knn_equivalence(self, unit2):
        incremental, bulk = build_pair(unit2, make_points(600, 2, seed=23))
        rng = random.Random(29)
        for _ in range(20):
            q = (rng.random(), rng.random())
            a = incremental.nearest(q, k=7)
            b = bulk.nearest(q, k=7)
            assert [n.distance for n in a.neighbours] == [
                n.distance for n in b.neighbours
            ]

    def test_deletion_after_bulk_load(self, unit2):
        points = make_points(400, 2, seed=31)
        tree = BVTree(unit2, data_capacity=6, fanout=6)
        tree.bulk_load([(p, i) for i, p in enumerate(points)])
        rng = random.Random(37)
        rng.shuffle(points)
        for p in points[:200]:
            tree.delete(p)
        tree.check(check_owners=True)
        assert tree.count == 200


class TestBulkLoadMemory:
    #: Peak traced allocation per record of a columnar bulk load.  The
    #: loader that ingests into columns measures 165 B on 20k uniform 2-d
    #: points, about what the finished tree holds (155 B); the loader of
    #: per-record triples before it peaked at 351 B.  The bound leaves
    #: about 25% headroom.
    PEAK_BYTES_PER_RECORD = 206

    def test_peak_allocation_per_record(self):
        records = [(p, i) for i, p in enumerate(uniform(20_000, 2, seed=3))]
        tree = BVTree(DataSpace.unit(2, resolution=18))
        gc.collect()
        tracemalloc.start()
        try:
            tree.bulk_load(records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.count == len(records)
        assert peak / tree.count <= self.PEAK_BYTES_PER_RECORD


class TestClearAccounting:
    def test_clear_charges_no_reads(self, unit2):
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        tree.bulk_load([(p, i) for i, p in enumerate(make_points(300, 2))])
        reads_before = tree.store.stats.reads
        tree.clear()
        assert tree.store.stats.reads == reads_before
        assert tree.count == 0


# ----------------------------------------------------------------------
# Identity with the reference loader
# ----------------------------------------------------------------------
#
# The digests below were recorded on the loader that built a list of
# ``(path, point, value)`` triples, planned over ``RegionKey`` objects
# and filled pages from triple iterators.  The loader may change how it
# computes the plan, never what it builds: every cell must reproduce the
# recorded tree byte for byte, with the same structural counters and
# the same planned ``data_split`` events.

GOLDEN_N = 1000
GOLDEN_CELLS = [
    (ndim, dist, seed, layout)
    for ndim in (2, 3)
    for dist in ("uniform", "clustered")
    for seed in range(5)
    for layout in ("object", "columnar")
]
EVENT_CELLS = [
    (ndim, dist, 0, layout)
    for ndim in (2, 3)
    for dist in ("uniform", "clustered")
    for layout in ("object", "columnar")
]


class SplitRecorder:
    """Keeps ``(key, moved, planned)`` of every ``data_split`` event."""

    kinds = frozenset({DATA_SPLIT})

    def __init__(self):
        self.events = []

    def emit(self, event):
        fields = event.fields
        self.events.append((fields["key"], fields["moved"], fields["planned"]))


def golden_records(ndim, dist, seed):
    generate = uniform if dist == "uniform" else clustered
    return [(p, i) for i, p in enumerate(generate(GOLDEN_N, ndim, seed=seed))]


def tree_digest(tree, *extra):
    """sha256 of the snapshot plus the structural counters (and extras)."""
    s = tree.stats
    h = hashlib.sha256(dumps_tree(tree).encode())
    h.update(
        repr(
            (s.data_splits, s.index_splits, s.promotions, s.demotions, extra)
        ).encode()
    )
    return h.hexdigest()[:16]


def load_digest(ndim, dist, seed, layout):
    tree = BVTree(
        DataSpace.unit(ndim, resolution=16),
        data_capacity=6,
        fanout=6,
        layout=layout,
    )
    tree.bulk_load(golden_records(ndim, dist, seed), replace=True)
    return tree_digest(tree)


def split_events_digest(ndim, dist, seed, layout):
    tree = BVTree(
        DataSpace.unit(ndim, resolution=16),
        data_capacity=6,
        fanout=6,
        layout=layout,
    )
    recorder = SplitRecorder()
    tree.tracer.subscribe(recorder)
    tree.bulk_load(golden_records(ndim, dist, seed), replace=True)
    assert all(planned for _, _, planned in recorder.events)
    return tree_digest(tree, recorder.events)


def duplicate_digest():
    """A coarse grid, so most records collide with an earlier one."""
    tree = BVTree(DataSpace.unit(2, resolution=4), data_capacity=6, fanout=6)
    records = [(p, i) for i, p in enumerate(uniform(GOLDEN_N, 2, seed=11))]
    tree.bulk_load(records, replace=True)
    assert tree.count < GOLDEN_N // 2
    return tree_digest(tree)


GOLDEN = {
    (2, 'uniform', 0, 'object'): '724d1b4e6b4b742f',
    (2, 'uniform', 0, 'columnar'): 'a4176b6a1efe9bcc',
    (2, 'uniform', 1, 'object'): '30734d74304a46fa',
    (2, 'uniform', 1, 'columnar'): '61db2d9bbfc31323',
    (2, 'uniform', 2, 'object'): '1eb4d7fbbe7a91d8',
    (2, 'uniform', 2, 'columnar'): '12f50018a658cbc2',
    (2, 'uniform', 3, 'object'): 'f7bd4e52076b7d84',
    (2, 'uniform', 3, 'columnar'): '38e12ceed8aa6996',
    (2, 'uniform', 4, 'object'): '072511488c0425f2',
    (2, 'uniform', 4, 'columnar'): '2659b032fe5456ac',
    (2, 'clustered', 0, 'object'): '8dc1b158402e159c',
    (2, 'clustered', 0, 'columnar'): '63b66be4da135f4b',
    (2, 'clustered', 1, 'object'): '52761e453f00622d',
    (2, 'clustered', 1, 'columnar'): '1869afab25e9cd0e',
    (2, 'clustered', 2, 'object'): '2d693ef08661e1b1',
    (2, 'clustered', 2, 'columnar'): '6f5d556a54e5f190',
    (2, 'clustered', 3, 'object'): '8e2a03d39969ce1a',
    (2, 'clustered', 3, 'columnar'): 'b6f3ba5ba61790cc',
    (2, 'clustered', 4, 'object'): '1d7732812b0ac84c',
    (2, 'clustered', 4, 'columnar'): '50ff80af3802f768',
    (3, 'uniform', 0, 'object'): 'c5081e3806130dd2',
    (3, 'uniform', 0, 'columnar'): '6e93eb5d2324b00e',
    (3, 'uniform', 1, 'object'): '3353617010f59e79',
    (3, 'uniform', 1, 'columnar'): '2c9bb318dfb568fc',
    (3, 'uniform', 2, 'object'): '5f75af9d0aaa2bc5',
    (3, 'uniform', 2, 'columnar'): 'be7903cf857bd1bb',
    (3, 'uniform', 3, 'object'): 'de5bbdba31af06eb',
    (3, 'uniform', 3, 'columnar'): '05a8762c7ce04198',
    (3, 'uniform', 4, 'object'): 'aa21a0e039e1c943',
    (3, 'uniform', 4, 'columnar'): 'f030530780abccea',
    (3, 'clustered', 0, 'object'): 'd4d8d1fe1948fe58',
    (3, 'clustered', 0, 'columnar'): '6ee37dec7d4efc63',
    (3, 'clustered', 1, 'object'): 'e53b0da911a14455',
    (3, 'clustered', 1, 'columnar'): '0ae90c313189ec52',
    (3, 'clustered', 2, 'object'): 'cc993c796d5bdd1b',
    (3, 'clustered', 2, 'columnar'): '00d193be8a7af0a0',
    (3, 'clustered', 3, 'object'): '3357d70cc434c64d',
    (3, 'clustered', 3, 'columnar'): '64becd64d7444502',
    (3, 'clustered', 4, 'object'): '29b4959ca64c509d',
    (3, 'clustered', 4, 'columnar'): '105c6974b3d2e9bd',
}
GOLDEN_EVENTS = {
    (2, 'uniform', 0, 'object'): 'b5deea10ea9c1304',
    (2, 'uniform', 0, 'columnar'): '02d4946cf005bf08',
    (2, 'clustered', 0, 'object'): '5a90247e00822d95',
    (2, 'clustered', 0, 'columnar'): '77f6f792f8f93b0b',
    (3, 'uniform', 0, 'object'): '655db71125f0f6a8',
    (3, 'uniform', 0, 'columnar'): 'cb440dd4527fd5f3',
    (3, 'clustered', 0, 'object'): 'c7c09bf9795425bc',
    (3, 'clustered', 0, 'columnar'): '8ce78ee5dee87683',
}
GOLDEN_DUPLICATES = "ac5c870bb4c72ca3"


class TestIdentityWithReferenceLoader:
    @pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=str)
    def test_tree_and_counters(self, cell):
        assert load_digest(*cell) == GOLDEN[cell]

    @pytest.mark.parametrize("cell", EVENT_CELLS, ids=str)
    def test_planned_split_events(self, cell):
        assert split_events_digest(*cell) == GOLDEN_EVENTS[cell]

    def test_replace_with_duplicate_paths(self):
        assert duplicate_digest() == GOLDEN_DUPLICATES
