"""Experiment E-RANGE: range queries — contraction vs Z-order intervals.

§1 on the linearisation workaround: "the method requires the
representation of the whole data space i.e. there is no means of
contracting the representation to a set of occupied subspaces.
Comparative studies by [KSS+90] have clearly shown this to be a very
significant factor in the efficiency of range queries."
"""

import random

from repro.bench.harness import build_index
from repro.obs.report import format_table
from repro.workloads import clustered


def query_boxes(rng, count, side):
    boxes = []
    for _ in range(count):
        lows = (rng.uniform(0, 1 - side), rng.uniform(0, 1 - side))
        boxes.append((lows, (lows[0] + side, lows[1] + side)))
    return boxes


def test_range_pages_bv_vs_zorder(benchmark, space2, clustered_points):
    bv = build_index("bv", space2, clustered_points)
    zb = build_index("zorder", space2, clustered_points)
    rng = random.Random(15)
    sweeps = [(side, query_boxes(rng, 30, side)) for side in (0.05, 0.1, 0.2, 0.4)]

    def run_sweep():
        rows = []
        for side, boxes in sweeps:
            bv_pages = zb_pages = found = 0
            for lows, highs in boxes:
                a = bv.range_query(lows, highs)
                b = zb.range_query(lows, highs)
                assert set(a.points()) == set(b.points())
                bv_pages += a.pages_visited
                zb_pages += b.pages_visited
                found += len(a)
            rows.append(
                (side, found, bv_pages, zb_pages, zb_pages / max(bv_pages, 1))
            )
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["box side", "records", "BV pages", "Z-order pages", "ratio"],
        rows,
        title="E-RANGE: clustered data (occupied subspaces), 30 boxes each",
    ))
    # The shape claim: the region-contracting index touches no more
    # pages, and materially fewer on the empty-space-heavy sweeps.
    for side, found, bv_pages, zb_pages, ratio in rows:
        assert bv_pages <= zb_pages
    assert any(ratio >= 1.5 for *_, ratio in rows)


def test_empty_space_is_free_for_bv(benchmark, space2, clustered_points):
    bv = build_index("bv", space2, clustered_points)
    zb = build_index("zorder", space2, clustered_points)

    # Boxes centred on empty space between clusters.
    rng = random.Random(16)
    empties = []
    for lows, highs in query_boxes(rng, 200, 0.08):
        if len(bv.range_query(lows, highs)) == 0:
            empties.append((lows, highs))
        if len(empties) == 20:
            break

    def run_empties():
        bv_pages = sum(
            bv.range_query(lo, hi).pages_visited for lo, hi in empties
        )
        zb_pages = sum(
            zb.range_query(lo, hi).pages_visited for lo, hi in empties
        )
        return bv_pages, zb_pages

    bv_pages, zb_pages = benchmark(run_empties)
    print(f"\n{len(empties)} all-empty boxes: BV {bv_pages} pages, "
          f"Z-order {zb_pages} pages")
    if empties:
        assert bv_pages <= zb_pages
