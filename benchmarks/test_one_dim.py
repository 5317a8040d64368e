"""Experiment E-1D: degeneration to the B-tree in one dimension.

§2: "it must maintain the characteristics of the B-tree in n dimensions,
and it must degenerate to a balanced tree in the one-dimensional case."
The BV-tree and a B+-tree are loaded with identical 1-d keys; heights,
search costs and occupancy floors must match B-tree behaviour.
"""

import random

from repro.baselines.btree import BPlusTree
from repro.obs.report import format_table
from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.workloads import sequential_1d


def build_pair(n, order, seed=17):
    space = DataSpace.unit(1, resolution=24)
    bv = BVTree(space, data_capacity=16, fanout=16)
    bt = BPlusTree(leaf_capacity=16, fanout=16)
    points = [p for p in sequential_1d(n)]
    if order == "random":
        random.Random(seed).shuffle(points)
    for i, p in enumerate(points):
        bv.insert(p, i, replace=True)
        bt.insert(p[0], i, replace=True)
    return bv, bt


def test_one_dimensional_degeneration(benchmark):
    def build_all():
        return {
            (n, order): build_pair(n, order)
            for n in (2000, 16_000)
            for order in ("sequential", "random")
        }

    pairs = benchmark.pedantic(build_all, rounds=1, iterations=1)
    rows = []
    for (n, order), (bv, bt) in sorted(pairs.items()):
        bv_stats = bv.tree_stats()
        leaves, _ = bt.node_occupancies()
        rows.append(
            [
                n,
                order,
                bv.height,
                bt.height,
                bv.search((0.5,)).nodes_visited,
                bt.search_cost(0.5),
                bv_stats.min_data_occupancy,
                min(leaves),
                bv_stats.total_guards,
            ]
        )
    print()
    print(format_table(
        ["N", "order", "BV height", "B+ height", "BV search", "B+ search",
         "BV min occ", "B+ min occ", "BV guards"],
        rows,
        title="E-1D: identical 1-d keys in both structures (P=F=16)",
    ))
    for (n, order), (bv, bt) in pairs.items():
        # Same logarithmic class: within one level of each other.
        assert abs(bv.height - bt.height) <= 1
        # Both cost height+1 pages per search.
        assert bv.search((0.25,)).nodes_visited == bv.height + 1
        assert bt.search_cost(0.25) == bt.height + 1
        # Both keep their occupancy floors (1/3 vs 1/2).
        assert bv.tree_stats().min_data_occupancy >= bv.policy.min_data_occupancy()
        bv.check(sample_points=50)


def test_one_dim_mixed_updates(benchmark):
    # Fully dynamic in 1-d too: grow, shrink, stay consistent.
    def churn():
        space = DataSpace.unit(1, resolution=24)
        bv = BVTree(space, data_capacity=8, fanout=8)
        rng = random.Random(18)
        live = {}
        for step in range(6000):
            if live and rng.random() < 0.45:
                key = rng.choice(list(live))
                bv.delete((key,))
                del live[key]
            else:
                # Quantise to the space's resolution so the model dict
                # and the index agree on key identity.
                key = int(rng.random() * 2**24) / 2**24
                bv.insert((key,), step, replace=True)
                live[key] = step
        return bv, live

    bv, live = benchmark.pedantic(churn, rounds=1, iterations=1)
    assert len(bv) == len(live)
    bv.check(sample_points=100, check_occupancy=False)
    print(f"\n1-d churn: {len(bv)} live records, height {bv.height}, "
          f"merges {bv.stats.merges}, deferred {bv.stats.deferred_merges}")
