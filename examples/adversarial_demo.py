#!/usr/bin/env python3
"""The pathologies, live: cascade splits and occupancy collapse.

Loads the same clustered workload into the BV-tree and into the three
designs the paper's introduction critiques, then prints the structural
damage each suffers — the behaviour Figures 1-1/1-2/1-3 describe — and
the worst single-insertion cost.

Run:  python examples/adversarial_demo.py
"""

from repro import BVTree, DataSpace
from repro.baselines import BangFile, KDBTree, LSDTree
from repro.obs.report import format_table
from repro.workloads import clustered, nested_hotspot


def load(index, points):
    for i, p in enumerate(points):
        index.insert(p, i, replace=True)
    return index


def occupancy_row(name, index, data_sizes, index_sizes, forced, cascade):
    return [
        name,
        len(data_sizes),
        min(data_sizes),
        f"{sum(data_sizes) / len(data_sizes):.1f}",
        min(index_sizes) if index_sizes else "-",
        forced,
        cascade,
    ]


def main() -> None:
    space = DataSpace.unit(2, resolution=18)
    points = list(clustered(8000, 2, clusters=6, spread=0.015, seed=3))
    points += list(nested_hotspot(4000, 2, seed=4))
    P, F = 8, 8

    bv = load(BVTree(space, data_capacity=P, fanout=F), points)
    kdb = load(KDBTree(space, data_capacity=P, fanout=F), points)
    bang = load(BangFile(space, data_capacity=P, fanout=F), points)
    lsd = load(LSDTree(space, data_capacity=P, fanout=F), points)

    bv_stats = bv.tree_stats()
    rows = [
        occupancy_row("BV-tree", bv, bv_stats.data_occupancies,
                      bv_stats.index_occupancies, 0, 0),
        occupancy_row("K-D-B tree", kdb, *kdb.occupancies(),
                      kdb.stats.forced_splits, kdb.stats.max_cascade),
        occupancy_row("BANG (balanced dir)", bang, *bang.occupancies(),
                      bang.stats.forced_splits, bang.stats.max_cascade),
        occupancy_row("LSD-style", lsd, *lsd.occupancies(), 0, 0),
    ]
    print(format_table(
        ["structure", "data pages", "min occ", "avg occ", "min idx occ",
         "forced splits", "max cascade"],
        rows,
        title=f"clustered + hotspot workload, {len(points)} inserts, "
              f"P={P}, F={F}",
    ))

    print()
    print(f"BV-tree guaranteed data-page minimum: "
          f"{bv.policy.min_data_occupancy()} records "
          f"(measured minimum: {bv_stats.min_data_occupancy})")
    print(f"BV-tree promotions: {bv.stats.promotions}, "
          f"demotions: {bv.stats.demotions}, guards live: "
          f"{bv_stats.total_guards} — the price paid instead of cascades")
    print(f"every BV search costs exactly height+1 = {bv.height + 1} pages; "
          f"a K-D-B insertion once forced {kdb.stats.max_cascade} extra "
          f"page splits, a BANG insertion {bang.stats.max_cascade}")

    bv.check(sample_points=100)
    print("BV-tree invariants verified")


if __name__ == "__main__":
    main()
