"""Experiment E-OCC: the 1/3 minimum occupancy, measured.

"a minimum occupancy of 33% for both data and index nodes can be
guaranteed" (§8) — verified on built trees across distributions,
dimensionalities and both capacity policies, including after heavy
deletion (§5's claim that the splitting solution enables truly dynamic
deletion).
"""

import random

import pytest

from repro.bench.harness import build_index
from repro.obs.report import format_table
from repro.geometry.space import DataSpace
from repro.workloads import (
    clustered,
    diagonal,
    nested_hotspot,
    skewed,
    uniform,
    zipf_grid,
)

WORKLOADS = {
    "uniform": lambda n, d: uniform(n, d, seed=1),
    "clustered": lambda n, d: clustered(n, d, seed=2),
    "skewed": lambda n, d: skewed(n, d, seed=3),
    "diagonal": lambda n, d: diagonal(n, d, seed=4),
    "zipf": lambda n, d: zipf_grid(n, d, seed=5),
    "hotspot": lambda n, d: nested_hotspot(n, d, seed=6),
}


def build_all(ndim: int, n: int = 8000):
    space = DataSpace.unit(ndim, resolution=16)
    out = {}
    for name, gen in WORKLOADS.items():
        out[name] = build_index(
            "bv", space, gen(n, ndim), data_capacity=12, fanout=12
        )
    return out


@pytest.mark.parametrize("ndim", [2, 3])
def test_occupancy_floor_all_workloads(benchmark, ndim):
    trees = benchmark.pedantic(build_all, args=(ndim,), rounds=1, iterations=1)
    rows = []
    for name, tree in trees.items():
        stats = tree.tree_stats()
        rows.append(
            [
                name,
                stats.data_pages,
                stats.min_data_occupancy,
                f"{stats.avg_data_occupancy:.2f}",
                stats.min_index_occupancy,
                f"{stats.avg_index_occupancy:.2f}",
                stats.total_guards,
            ]
        )
        assert stats.min_data_occupancy >= tree.policy.min_data_occupancy()
        assert stats.min_index_occupancy >= tree.policy.min_index_occupancy()
        assert stats.avg_data_occupancy >= 1 / 3
        tree.check(sample_points=50)
    print()
    print(format_table(
        ["workload", "data pages", "min occ", "avg fill", "min idx occ",
         "avg idx fill", "guards"],
        rows,
        title=f"E-OCC ({ndim}-d, P=F=12): measured occupancy floors",
    ))


def test_occupancy_survives_heavy_deletion(benchmark, space2):
    points = list(dict.fromkeys(uniform(10_000, 2, seed=7)))

    def grow_then_shrink():
        tree = build_index("bv", space2, points, data_capacity=12, fanout=12)
        rng = random.Random(8)
        order = points[:]
        rng.shuffle(order)
        for p in order[: len(order) * 2 // 3]:
            tree.delete(p)
        return tree

    tree = benchmark.pedantic(grow_then_shrink, rounds=1, iterations=1)
    stats = tree.tree_stats()
    print(f"\nafter deleting 2/3: min data occupancy "
          f"{stats.min_data_occupancy} (guarantee "
          f"{tree.policy.min_data_occupancy()}), deferred merges "
          f"{tree.stats.deferred_merges}, merges {tree.stats.merges}, "
          f"redistributions {tree.stats.redistributions}")
    if tree.stats.deferred_merges == 0:
        assert stats.min_data_occupancy >= tree.policy.min_data_occupancy()
    assert tree.stats.merges > 0
    tree.check(sample_points=100, check_occupancy=False)
