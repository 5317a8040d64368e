"""Experiment E-ABL (ablation): fan-out and capacity trade-offs.

DESIGN.md's design-choice ablations:

1. **Fan-out vs worst-case gap** — §7's message that a higher F narrows
   the best/worst gap, observed on built trees under a promotion-heavy
   workload (the empirical analogue of Figure 7-1 vs 7-2).
2. **Split balance target** — the balanced split's measured floor across
   capacities, confirming the [LS89] third across the parameter range.
"""

from repro.analysis import worstcase as wc
from repro.bench.harness import build_index
from repro.obs.report import format_table
from repro.geometry.space import DataSpace
from repro.workloads import promotion_storm, uniform

N = 10_000


def test_fanout_narrows_worst_case_gap(benchmark):
    space = DataSpace.unit(2, resolution=18)
    points = list(promotion_storm(N, 2, seed=33))

    def sweep():
        rows = []
        for fanout in (6, 12, 24, 48):
            tree = build_index(
                "bv", space, points,
                data_capacity=fanout, fanout=fanout, policy="uniform",
            )
            stats = tree.tree_stats()
            best = wc.best_case_height(fanout, stats.data_pages)
            worst = wc.worst_case_height(fanout, stats.data_pages)
            guards_per_node = stats.total_guards / max(stats.index_nodes, 1)
            rows.append(
                (fanout, stats.data_pages, best, tree.height, worst,
                 f"{guards_per_node:.2f}")
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["F", "data pages", "best-case h", "measured h", "worst-case h",
         "guards/node"],
        rows,
        title="E-ABL: fan-out vs height gap (promotion storm, uniform pages)",
    ))
    for fanout, pages, best, measured, worst, _ in rows:
        assert best <= measured <= worst
    # The analytic gap shrinks with F; measured heights sit near best.
    gaps = [worst - best for _, _, best, _, worst, _ in rows]
    assert gaps[-1] <= gaps[0]


def test_occupancy_floor_across_capacities(benchmark):
    space = DataSpace.unit(2, resolution=18)
    points = list(uniform(N, 2, seed=34))

    def sweep():
        rows = []
        for capacity in (4, 8, 16, 32, 64):
            tree = build_index(
                "bv", space, points, data_capacity=capacity, fanout=capacity
            )
            stats = tree.tree_stats()
            rows.append(
                (
                    capacity,
                    tree.policy.min_data_occupancy(),
                    stats.min_data_occupancy,
                    f"{stats.min_data_occupancy / capacity:.2f}",
                    f"{stats.avg_data_occupancy:.2f}",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["P = F", "guaranteed min", "measured min", "measured min fill",
         "avg fill"],
        rows,
        title="E-ABL: the 1/3 floor across page capacities",
    ))
    for capacity, guaranteed, measured, *_ in rows:
        assert measured >= guaranteed
    # Larger pages converge to the exact third from above.
    big = rows[-1]
    assert float(big[3]) >= 0.28
