"""Experiment E-IO (ablation): physical I/O under an LRU buffer pool.

Not a paper figure — an ablation DESIGN.md calls for: the paper's page
counts translate to physical I/O through a buffer manager, and the
BV-tree's fixed-length search paths make that translation predictable.
Upper index levels (a tiny fraction of pages, §7's ti/td ≈ 1/F) stay
resident, so steady-state physical reads per search approach one cold
data page.
"""

import random

from repro.obs.report import format_table
from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.storage.buffer import BufferPool
from repro.storage.pager import PageStore
from repro.workloads import uniform

N = 15_000


def build(capacity):
    space = DataSpace.unit(2, resolution=18)
    pool = BufferPool(PageStore(1024), capacity=capacity)
    tree = BVTree(space, data_capacity=16, fanout=16, store=pool)
    points = list(dict.fromkeys(uniform(N, 2, seed=30)))
    for i, p in enumerate(points):
        tree.insert(p, i, replace=True)
    return tree, pool, points


def test_hit_ratio_vs_pool_size(benchmark):
    def sweep():
        rows = []
        for capacity in (8, 32, 128, 512):
            tree, pool, points = build(capacity)
            rng = random.Random(31)
            pool.stats.reset()
            pool.store.stats.reset()
            searches = 1000
            for _ in range(searches):
                tree.get(rng.choice(points))
            rows.append(
                (
                    capacity,
                    tree.height + 1,
                    f"{pool.stats.hit_ratio:.3f}",
                    pool.store.stats.reads / searches,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["pool pages", "logical reads/search", "hit ratio",
         "physical reads/search"],
        rows,
        title=f"E-IO: {N} uniform points, random exact-match searches",
    ))
    physical = [row[3] for row in rows]
    assert physical == sorted(physical, reverse=True)
    # With a pool a fraction of the data size, most of each search is
    # absorbed: physical cost well under the logical height+1.
    assert physical[-1] < rows[-1][1] / 2


def test_index_residency(benchmark):
    tree, pool, points = build(capacity=256)
    rng = random.Random(32)
    # Warm up, then measure.
    for _ in range(500):
        tree.get(rng.choice(points))
    pool.stats.reset()
    pool.store.stats.reset()

    def run():
        for _ in range(500):
            tree.get(rng.choice(points))
        return pool.store.stats.reads / 500

    physical_per_search = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = tree.tree_stats()
    print(f"\nsteady state: {physical_per_search:.2f} physical reads per "
          f"search (index nodes: {stats.index_nodes}, data pages: "
          f"{stats.data_pages}) — the index layer is resident")
    assert physical_per_search < 1.5
