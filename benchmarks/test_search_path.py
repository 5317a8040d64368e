"""Experiment E-PATH: logarithmic access — every search costs height+1.

"The length of every exact-match search path from root to leaf of the
index tree is therefore always equal to the height of the partition
hierarchy" (§6), and the height itself is logarithmic in N.
"""

import math
import random

from repro.bench.harness import build_index, search_cost
from repro.obs.report import format_table
from repro.geometry.space import DataSpace
from repro.workloads import uniform


def test_every_search_costs_height_plus_one(benchmark, bv_uniform, uniform_points):
    tree = bv_uniform
    probes = random.Random(1).sample(uniform_points, 500)

    def search_all():
        return [tree.search(p) for p in probes]

    results = benchmark(search_all)
    costs = {r.nodes_visited for r in results}
    assert costs == {tree.height + 1}
    guard_peak = max(r.max_guard_set for r in results)
    assert guard_peak <= max(tree.height - 1, 0)
    print(f"\n{len(probes)} searches, all {tree.height + 1} pages; "
          f"largest guard set {guard_peak} (bound: height-1 = "
          f"{tree.height - 1})")


def test_height_grows_logarithmically(benchmark):
    space = DataSpace.unit(2, resolution=20)
    sizes = [500, 2000, 8000, 32_000]

    def build_series():
        rows = []
        for n in sizes:
            tree = build_index(
                "bv", space, uniform(n, 2, seed=9), data_capacity=16, fanout=16
            )
            stats = tree.tree_stats()
            bound = math.ceil(
                math.log(max(stats.data_pages, 2))
                / math.log(tree.policy.fanout / 3)
            )
            rows.append((n, stats.data_pages, tree.height, bound))
        return rows

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    print()
    print(format_table(
        ["N", "data pages", "height", "log_{F/3}(pages) bound"],
        rows,
        title="E-PATH: height vs data size (P=F=16)",
    ))
    for n, pages, height, bound in rows:
        assert height <= bound
    heights = [h for _, _, h, _ in rows]
    assert heights == sorted(heights)
    assert heights[-1] <= heights[0] + 3  # 64x data, +3 levels at most


def test_update_cost_bounded(benchmark, space2):
    # A single insertion touches the search path plus at most one split
    # per level — never a cascade (contrast E-CASC).
    tree = build_index(
        "bv", space2, uniform(5000, 2, seed=10), data_capacity=8, fanout=8
    )
    rng = random.Random(11)
    before = tree.store.stats.snapshot()

    def insert_batch():
        for _ in range(200):
            tree.insert((rng.random(), rng.random()), None, replace=True)

    benchmark.pedantic(insert_batch, rounds=1, iterations=1)
    delta = tree.store.stats.delta(before)
    per_op = (delta.reads + delta.writes) / max(
        1, tree.count and 200
    )
    print(f"\nmean page accesses per insertion: {per_op:.1f} "
          f"(height {tree.height})")
    # Room for owner descents and occasional splits, but no blow-up.
    assert per_op < 12 * (tree.height + 1)
