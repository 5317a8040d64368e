"""One copy of each page: serving and durability add almost no memory.

The store copies a page on its first write in a transaction, so a
served tree's published versions and a durable store's delta bases
share the live page objects instead of holding copies of their own.
Measured as tracemalloc live bytes after a 20k-point columnar bulk load
(the records themselves are built before tracing starts).
"""

import gc
import random
import tracemalloc

import pytest

from repro.concurrency import TreeService
from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.storage.durable.store import DurableStore

N = 20_000


def live_bytes(store=None, served=False):
    rng = random.Random(3)
    records = [((rng.random(), rng.random()), i) for i in range(N)]
    gc.collect()
    tracemalloc.start()
    try:
        tree = BVTree(DataSpace.unit(2), store=store, layout="columnar")
        if served:
            service = TreeService(tree)
            service.bulk_load(records)
            assert service.lsn == 1
        else:
            tree.bulk_load(records)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def bare():
    return live_bytes()


def test_served_tree_shares_its_pages(bare):
    served = live_bytes(served=True)
    assert served <= 1.15 * bare, (served, bare)


def test_durable_tree_keeps_no_delta_copies(bare, tmp_path):
    store = DurableStore(tmp_path, sync="os")
    try:
        durable = live_bytes(store=store)
    finally:
        store.close(checkpoint=False)
    assert durable <= 1.20 * bare, (durable, bare)
