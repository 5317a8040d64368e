"""Integration: a BV-tree running through an LRU buffer pool.

The buffer pool is a drop-in store decorator; the tree's behaviour must
be identical, and the pool's hit ratio must respond to its capacity the
way a database buffer should (bigger pool, fewer physical reads).
"""

import random

import pytest

from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.storage.buffer import BufferPool
from repro.storage.pager import PageStore
from tests.conftest import make_points


def build_buffered(capacity: int, n: int = 2000):
    space = DataSpace.unit(2, resolution=16)
    pool = BufferPool(PageStore(1024), capacity=capacity)
    tree = BVTree(space, data_capacity=8, fanout=8, store=pool)
    for i, p in enumerate(make_points(n, 2, seed=70)):
        tree.insert(p, i, replace=True)
    return tree, pool


class TestBehaviouralEquivalence:
    def test_all_operations_work_through_the_pool(self):
        tree, pool = build_buffered(capacity=32)
        points = list(dict.fromkeys(make_points(2000, 2, seed=70)))
        for p in random.Random(71).sample(points, 200):
            tree.get(p)
        result = tree.range_query((0.2, 0.2), (0.5, 0.5))
        assert len(result) > 0
        for p in points[:300]:
            tree.delete(p)
        tree.check(sample_points=50, check_occupancy=False)

    def test_same_answers_as_unbuffered(self):
        buffered, _ = build_buffered(capacity=16)
        space = DataSpace.unit(2, resolution=16)
        plain = BVTree(space, data_capacity=8, fanout=8)
        for i, p in enumerate(make_points(2000, 2, seed=70)):
            plain.insert(p, i, replace=True)
        box = ((0.1, 0.3), (0.6, 0.8))
        assert set(buffered.range_query(*box).points()) == set(
            plain.range_query(*box).points()
        )
        assert buffered.height == plain.height


class TestCacheEconomics:
    def test_hit_ratio_grows_with_capacity(self):
        probes = list(dict.fromkeys(make_points(2000, 2, seed=70)))
        ratios = []
        for capacity in (4, 32, 256):
            tree, pool = build_buffered(capacity=capacity)
            pool.stats.reset()
            pool.store.stats.reset()
            rng = random.Random(72)
            for _ in range(500):
                tree.get(rng.choice(probes))
            ratios.append(pool.stats.hit_ratio)
        assert ratios == sorted(ratios)
        assert ratios[-1] > 0.5

    def test_upper_levels_stay_resident(self):
        # Root and upper index nodes are touched by every search; with a
        # modest pool they stay resident, so physical reads per search
        # approach just the cold leaf pages.
        tree, pool = build_buffered(capacity=64)
        pool.stats.reset()
        pool.store.stats.reset()
        points = list(dict.fromkeys(make_points(2000, 2, seed=70)))
        rng = random.Random(73)
        searches = 400
        for _ in range(searches):
            tree.get(rng.choice(points))
        logical = pool.stats.reads
        physical = pool.store.stats.reads
        assert physical < logical / 2

    def test_tiny_pool_still_correct(self):
        tree, pool = build_buffered(capacity=1)
        points = list(dict.fromkeys(make_points(2000, 2, seed=70)))
        for p in points[:100]:
            tree.get(p)
        assert pool.stats.hit_ratio < 0.9
        tree.check(sample_points=30)
