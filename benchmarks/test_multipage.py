"""Experiment T7-B: §7.3 multiple page sizes — equations (10)–(18).

The claim: index pages of size B·x at level x restore best-case data
capacity in the worst case (equation 12 vs 1), keep the index:data ratio
at 1/F (equation 15), and cost almost nothing in total index size
(equations 16–18).  Verified analytically and then *empirically*: two
BV-trees built from the same adversarial workload under the two
policies.
"""

import pytest

from repro.analysis import multipage as mp
from repro.analysis import worstcase as wc
from repro.bench.harness import build_index
from repro.obs.report import format_table
from repro.geometry.space import DataSpace
from repro.workloads import promotion_storm

FANOUT = 120


def analytic_rows():
    return [
        (
            h,
            wc.best_case_data_nodes(FANOUT, h),
            wc.worst_case_data_nodes(FANOUT, h),
            mp.worst_case_data_nodes(FANOUT, h),
            mp.worst_case_index_bytes(FANOUT, h, 1024),
            mp.worst_case_index_bytes_approx(FANOUT, h, 1024),
        )
        for h in range(1, 8)
    ]


def test_scaled_pages_restore_best_case(benchmark):
    rows = benchmark(analytic_rows)
    print()
    print(format_table(
        ["h", "best td", "uniform worst td", "scaled worst td",
         "scaled si(h) bytes", "B·F^(h-1)"],
        rows,
        title=f"§7.3 (F = {FANOUT}): equations (12) and (16)-(18)",
    ))
    for h, best, uniform_worst, scaled_worst, si_exact, si_approx in rows:
        assert scaled_worst >= best          # capacity fully restored
        assert scaled_worst >= uniform_worst
        if h >= 2:
            assert si_exact == pytest.approx(si_approx, rel=0.1)


def test_overhead_negligible(benchmark):
    overheads = benchmark(
        lambda: [(h, mp.scaled_page_overhead(FANOUT, h, 1024)) for h in range(2, 8)]
    )
    for h, overhead in overheads:
        assert overhead < 2.5 / FANOUT  # a couple of pages' worth, not more


def test_empirical_policies_agree_on_structure(benchmark, space2):
    # Same adversarial (promotion-heavy) workload under both policies:
    # both must keep every invariant; the scaled policy never splits a
    # node because of its guards, so it can only have fewer index nodes.
    points = list(promotion_storm(6000, 2, seed=5))

    def build_both():
        uniform_tree = build_index(
            "bv", space2, points, data_capacity=8, fanout=8, policy="uniform"
        )
        scaled_tree = build_index(
            "bv", space2, points, data_capacity=8, fanout=8, policy="scaled"
        )
        return uniform_tree, scaled_tree

    uniform_tree, scaled_tree = benchmark.pedantic(
        build_both, rounds=1, iterations=1
    )
    uniform_tree.check(sample_points=50)
    scaled_tree.check(sample_points=50)
    u, s = uniform_tree.tree_stats(), scaled_tree.tree_stats()
    print()
    print(format_table(
        ["policy", "height", "data pages", "index nodes", "guards",
         "index bytes"],
        [
            ["uniform", uniform_tree.height, u.data_pages, u.index_nodes,
             u.total_guards, u.index_bytes],
            ["scaled", scaled_tree.height, s.data_pages, s.index_nodes,
             s.total_guards, s.index_bytes],
        ],
        title="empirical: promotion-storm workload under both §7 policies",
    ))
    assert scaled_tree.height <= uniform_tree.height
    assert s.index_nodes <= u.index_nodes
    # Equation (18): the scaled policy's byte overhead stays small.
    if s.index_nodes:
        assert s.index_bytes <= u.index_bytes * 3
