"""Property tests: profiler histograms agree with the tree's own counters.

The profiler observes operations from the outside — a tracer tap for
updates, inline marks for reads — as deltas of the store's
``reads``/``writes`` counters and the tree's split counters.  The tree
counts the same operations from the inside via ``OpCounters``.  Over
randomised workloads, both page layouts and every store a tree can hold
(a bare ``PageStore``, a small ``BufferPool`` over one, and a durable
store) the two views must agree exactly:

- update op counts equal the ``OpCounters`` delta (inserts, deletes);
- the insert cascade histogram totals exactly the split counters'
  delta — every split the tree performed was attributed to some op,
  and none was invented;
- the pages written by all updates equal the store's ``writes`` delta;
- read op counts equal the number of calls the driver issued (the
  counters have no read-side fields, so the driver is the ground
  truth there), and every exact match reads ``height + 1`` pages — on a
  pool too, whose misses are fewer.
"""

import tempfile
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.obs.profile import OpProfiler
from repro.storage import BufferPool, PageStore
from repro.storage.durable import DurableStore

COORD = st.integers(min_value=0, max_value=(1 << 10) - 1)
LAYOUTS = st.sampled_from(["object", "columnar"])


def to_point(cell: tuple[int, int]) -> tuple[float, float]:
    return (cell[0] / 1024, cell[1] / 1024)


@contextmanager
def each_store():
    """One fresh store of each kind a tree can hold."""
    with tempfile.TemporaryDirectory() as directory:
        durable = DurableStore(directory, sync="os")
        try:
            yield [
                PageStore(),
                BufferPool(PageStore(), capacity=8),
                durable,
            ]
        finally:
            durable.close(checkpoint=False)


def build(store, layout):
    space = DataSpace.unit(2, resolution=10)
    return BVTree(
        space, data_capacity=4, fanout=4, store=store, layout=layout
    )


class TestUpdateConsistency:
    @given(
        cells=st.lists(
            st.tuples(COORD, COORD), min_size=1, max_size=120, unique=True
        ),
        layout=LAYOUTS,
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_histogram_counts_match_opcounters(self, cells, layout):
        with each_store() as stores:
            for store in stores:
                tree = build(store, layout)
                profiler = OpProfiler(tree).attach()
                before = tree.stats.snapshot()
                writes0 = store.stats.writes
                for i, cell in enumerate(cells):
                    tree.insert(to_point(cell), i, replace=True)
                deleted = cells[::3]
                for cell in deleted:
                    tree.delete(to_point(cell))
                profiler.detach()
                delta = tree.stats.delta(before)

                insert = profiler.profiles["insert"]
                assert insert.ops == delta.inserts == len(cells)
                assert insert.cascade.total == (
                    delta.data_splits + delta.index_splits
                )
                delete = profiler.profiles["delete"]
                assert delete.ops == delta.deletes == len(deleted)
                writes = store.stats.writes - writes0
                assert writes >= len(cells)  # each insert writes its page
                assert (
                    insert.pages_written.value + delete.pages_written.value
                    == writes
                )


class TestReadConsistency:
    @given(
        cells=st.lists(
            st.tuples(COORD, COORD), min_size=4, max_size=100, unique=True
        ),
        layout=LAYOUTS,
        stride=st.integers(min_value=1, max_value=5),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_read_ops_match_driver_counts(self, cells, layout, stride):
        with each_store() as stores:
            for store in stores:
                tree = build(store, layout)
                tree.bulk_load(
                    [(to_point(c), i) for i, c in enumerate(cells)],
                    replace=True,
                )
                profiler = OpProfiler(tree).attach()
                probes = cells[::stride]
                for cell in probes:
                    tree.get(to_point(cell))
                n_ranges = 0
                for cell in probes[: max(1, len(probes) // 4)]:
                    low = to_point(cell)
                    tree.range_query(
                        low, (min(1.0, low[0] + 0.2), min(1.0, low[1] + 0.2))
                    )
                    n_ranges += 1
                tree.nearest(to_point(cells[0]), k=min(3, len(cells)))
                profiler.flush()

                get = profiler.profile("get")
                assert get.ops == len(probes)
                assert get.errors.value == 0
                # every exact-match descent reads exactly height + 1 pages
                assert get.pages.total == len(probes) * (tree.height + 1)
                assert profiler.profile("range").ops == n_ranges
                assert profiler.profile("knn").ops == 1
                profiler.detach()
