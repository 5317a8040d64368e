"""Experiment E-CASC: cascade splitting — K-D-B and BANG vs BV-tree.

Figures 1-1/1-2 (K-D-B) and 1-3 (BANG with a balanced directory): their
directory splits force splits below, so the cost of one insertion is
unbounded and grows with the tree.  The BV-tree's promotion removes the
mechanism entirely — there is no forced-split operation to count.
"""

from repro.bench.harness import build_index
from repro.obs.report import format_table
from repro.workloads import clustered

SIZES = [2000, 8000, 20_000]


def build_sweep(space):
    rows = []
    for n in SIZES:
        points = list(clustered(n, 2, clusters=6, spread=0.02, seed=12))
        kdb = build_index("kdb", space, points, data_capacity=8, fanout=8)
        bang = build_index("bang", space, points, data_capacity=8, fanout=8)
        bv = build_index("bv", space, points, data_capacity=8, fanout=8)
        rows.append((n, kdb, bang, bv))
    return rows


def test_forced_splits_grow_with_n(benchmark, space2):
    rows = benchmark.pedantic(build_sweep, args=(space2,), rounds=1, iterations=1)
    table = []
    for n, kdb, bang, bv in rows:
        table.append(
            [
                n,
                kdb.stats.forced_splits,
                kdb.stats.max_cascade,
                bang.stats.forced_splits,
                bang.stats.max_cascade,
                bv.stats.promotions,
                0,
            ]
        )
    print()
    print(format_table(
        ["N", "K-D-B forced", "K-D-B worst insert", "BANG forced",
         "BANG worst insert", "BV promotions", "BV forced"],
        table,
        title="E-CASC: forced splits (clustered workload, P=F=8)",
    ))
    kdb_forced = [row[1] for row in table]
    bang_forced = [row[3] for row in table]
    # The pathologies are real and grow with data size...
    assert kdb_forced[-1] > kdb_forced[0] > 0
    assert bang_forced[-1] > bang_forced[0] > 0
    # ...while the BV-tree replaces them with bounded promotions: a
    # promotion moves ONE entry up, a cascade splits whole subtrees.
    for n, kdb, bang, bv in rows:
        assert kdb.stats.max_cascade >= 2
        bv.check(sample_points=30)


def test_worst_single_insertion(benchmark, space2):
    # The worst single insertion: the BV-tree's is O(height); the K-D-B
    # tree's grows with the subtree the split plane cuts.
    points = list(clustered(20_000, 2, clusters=6, spread=0.02, seed=12))

    def build():
        return build_index("kdb", space2, points, data_capacity=8, fanout=8)

    kdb = benchmark.pedantic(build, rounds=1, iterations=1)
    print(f"\nworst K-D-B insertion forced {kdb.stats.max_cascade} page "
          f"splits; a BV-tree insertion splits at most height+1 = "
          f"pages ({kdb.height + 1} here), once each")
    assert kdb.stats.max_cascade > kdb.height
