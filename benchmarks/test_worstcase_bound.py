"""Experiment E-WCB: measured heights never exceed the §7 worst case.

The analysis predicts, for a tree with fan-out F holding d data pages, a
best-case height ``ceil(log_F d)`` and a worst-case height from the
binomial recursion.  Every empirically built tree must land between the
two bounds — the "fully predictable and controllable worst-case
characteristics" of the abstract.
"""

from repro.analysis import worstcase as wc
from repro.bench.harness import build_index
from repro.obs.report import format_table
from repro.geometry.space import DataSpace
from repro.workloads import (
    clustered,
    diagonal,
    nested_hotspot,
    promotion_storm,
    uniform,
)

WORKLOADS = {
    "uniform": lambda n: uniform(n, 2, seed=21),
    "clustered": lambda n: clustered(n, 2, seed=22),
    "diagonal": lambda n: diagonal(n, 2, seed=23),
    "hotspot": lambda n: nested_hotspot(n, 2, seed=24),
    "storm": lambda n: promotion_storm(n, 2, seed=25),
}


def build_all(fanout):
    space = DataSpace.unit(2, resolution=18)
    out = {}
    for name, gen in WORKLOADS.items():
        out[name] = build_index(
            "bv",
            space,
            gen(12_000),
            data_capacity=fanout,
            fanout=fanout,
            policy="uniform",
        )
    return out


def test_heights_within_analytic_bounds(benchmark):
    fanout = 12
    trees = benchmark.pedantic(build_all, args=(fanout,), rounds=1, iterations=1)
    rows = []
    for name, tree in trees.items():
        pages = tree.tree_stats().data_pages
        best = wc.best_case_height(fanout, pages)
        worst = wc.worst_case_height(fanout, pages)
        rows.append([name, pages, best, tree.height, worst])
        assert best <= tree.height <= worst, name
    print()
    print(format_table(
        ["workload", "data pages", "best-case h", "measured h", "worst-case h"],
        rows,
        title=f"E-WCB: measured heights vs §7 bounds (uniform policy, F={fanout})",
    ))


def test_scaled_policy_tracks_best_case(benchmark):
    # §7.3: with level-scaled pages the worst case costs no extra height.
    fanout = 12
    space = DataSpace.unit(2, resolution=18)

    def build_scaled():
        return {
            name: build_index(
                "bv", space, gen(12_000), data_capacity=fanout,
                fanout=fanout, policy="scaled",
            )
            for name, gen in WORKLOADS.items()
        }

    trees = benchmark.pedantic(build_scaled, rounds=1, iterations=1)
    for name, tree in trees.items():
        pages = tree.tree_stats().data_pages
        best = wc.best_case_height(fanout, pages)
        assert tree.height <= best + 1, name
