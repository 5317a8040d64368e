"""The 30-second soak: sustained mixed load, every store flavour.

Marked ``slow`` (nightly lane): each cell races a writer applying a
long mixed op stream against snapshot readers for several seconds of
wall clock, across both layouts and both store flavours (plain
in-memory and WAL-backed durable), with the full post-hoc
linearizability check of :func:`run_threads` plus a final structural
verification.  The default lane gets the same coverage in miniature
from the other files; this one exists to give races that need many
preemption cycles room to show up.
"""

import pytest

from repro.concurrency import TreeService, run_threads, verify_structure
from repro.core.tree import BVTree
from repro.storage import BufferPool, PageStore
from repro.storage.durable.recovery import create_durable_tree

from tests.concurrency.conftest import distinct_points, make_space
from tests.concurrency.test_linearizability_threads import mixed_ops

pytestmark = pytest.mark.slow

#: Ops per soak cell — sized so the four cells together take ~30s.
SOAK_OPS = 9000


def _soak(service, seed):
    points = distinct_points(SOAK_OPS, service.tree.space, seed=seed)
    ops = mixed_ops(points, seed=seed + 1)
    run_threads(
        service,
        ops,
        readers=4,
        probe_points=[list(p) for p in points[:20]],
    )
    verify_structure(service.snapshot())


@pytest.mark.parametrize("layout", ["object", "columnar"])
def test_soak_in_memory(layout):
    space = make_space(resolution=10)
    tree = BVTree(
        space,
        data_capacity=8,
        fanout=8,
        store=PageStore(),
        layout=layout,
    )
    _soak(TreeService(tree), seed=1000 if layout == "object" else 2000)


def test_soak_buffered():
    space = make_space(resolution=10)
    pool = BufferPool(PageStore(), capacity=32, thread_safe=True)
    tree = BVTree(
        space, data_capacity=8, fanout=8, store=pool, layout="object"
    )
    _soak(TreeService(tree), seed=3000)


def test_soak_durable(tmp_path):
    space = make_space(resolution=10)
    tree = create_durable_tree(
        tmp_path, space, data_capacity=8, fanout=8, sync="os"
    )
    service = TreeService(tree)
    _soak(service, seed=4000)
    service.detach()
    tree.store.close()
