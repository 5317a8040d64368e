"""Experiment E-LSD: first-partition splitting vs occupancy control.

§1 on the LSD tree and the Buddy tree: splitting a directory page "by
the first partition in the binary splitting sequence ... is achieved at
the price of abandoning all control over the occupancy of the resulting
split index pages", making average occupancy and tree height
unpredictable.  The BV-tree's balanced splits keep a floor.
"""

from repro.bench.harness import build_index, index_occupancies
from repro.obs.report import format_table
from repro.workloads import skewed, uniform


def build_pair(space, points):
    lsd = build_index("lsd", space, points, data_capacity=8, fanout=8)
    bv = build_index("bv", space, points, data_capacity=8, fanout=8)
    return lsd, bv


def summarise(name, index):
    data, idx = index_occupancies(index)
    return [
        name,
        index.height,
        len(idx),
        min(idx) if idx else "-",
        f"{sum(idx) / len(idx):.2f}" if idx else "-",
        min(data),
        f"{sum(data) / len(data):.2f}",
    ]


def test_directory_occupancy_skew(benchmark, space2):
    points = list(skewed(15_000, 2, exponent=5.0, seed=13))
    lsd, bv = benchmark.pedantic(
        build_pair, args=(space2, points), rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["structure", "height", "index nodes", "min idx occ", "avg idx occ",
         "min data occ", "avg data occ"],
        [summarise("LSD-style", lsd), summarise("BV-tree", bv)],
        title="E-LSD: skewed workload (P=F=8)",
    ))
    _, lsd_idx = index_occupancies(lsd)
    bv_stats = bv.tree_stats()
    # The first-partition splitter abandons occupancy control: its
    # directory fill collapses below the BV-tree's on the same data...
    lsd_fill = sum(lsd_idx) / (len(lsd_idx) * lsd.fanout)
    assert lsd_fill < bv_stats.avg_index_occupancy
    assert min(lsd_idx) <= bv_stats.min_index_occupancy
    # ...the BV-tree holds its floor.
    assert bv_stats.min_index_occupancy >= bv.policy.min_index_occupancy()
    # And the skew costs structure: never fewer pages than the BV-tree.
    assert len(lsd_idx) >= bv_stats.index_nodes


def test_height_predictability(benchmark, space2):
    # Under benign uniform data the two behave similarly; under skew the
    # LSD-style height runs away while the BV-tree's stays put.
    def build_four():
        u = list(uniform(15_000, 2, seed=14))
        s = list(skewed(15_000, 2, exponent=5.0, seed=14))
        return {
            ("lsd", "uniform"): build_index("lsd", space2, u, data_capacity=8, fanout=8),
            ("lsd", "skewed"): build_index("lsd", space2, s, data_capacity=8, fanout=8),
            ("bv", "uniform"): build_index("bv", space2, u, data_capacity=8, fanout=8),
            ("bv", "skewed"): build_index("bv", space2, s, data_capacity=8, fanout=8),
        }

    trees = benchmark.pedantic(build_four, rounds=1, iterations=1)
    print()
    print(format_table(
        ["structure", "workload", "height"],
        [[k[0], k[1], t.height] for k, t in sorted(trees.items())],
        title="E-LSD: height predictability",
    ))
    lsd_delta = trees[("lsd", "skewed")].height - trees[("lsd", "uniform")].height
    bv_delta = trees[("bv", "skewed")].height - trees[("bv", "uniform")].height
    assert bv_delta <= 1
    assert lsd_delta >= bv_delta
