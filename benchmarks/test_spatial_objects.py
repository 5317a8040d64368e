"""Experiment E-OBJ: extended spatial objects — §1's critique, measured.

§1 on linearisation and clipping: an index that cannot represent an
extended object directly must divide it into parts, "introduc[ing] the
uncontrollable update characteristics we are trying to avoid (and which,
for example, the R+ tree also shows)".  §8's outlook is the remedy: the
dual representation (the minimal-enclosing-block assignment of
``repro.core.spatial``) stores exactly one copy of every object.

Measured here: stored copies per object (R+-tree vs dual representation)
as object extent grows, and stabbing-query page costs against the
R-tree's overlap.
"""

import random

from repro.baselines.rplustree import RPlusTree
from repro.baselines.rtree import RTree
from repro.obs.report import format_table
from repro.core.spatial import SpatialIndex
from repro.geometry.rect import Rect
from repro.geometry.space import DataSpace

N = 1500


def make_objects(n, max_side, seed=40):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x, y = rng.random() * 0.9, rng.random() * 0.9
        w = rng.uniform(max_side / 20, max_side)
        h = rng.uniform(max_side / 20, max_side)
        out.append(Rect((x, y), (x + w, y + h)))
    return out


def test_copies_per_object(benchmark):
    space = DataSpace.unit(2, resolution=18)

    def sweep():
        rows = []
        for max_side in (0.005, 0.02, 0.06):
            objects = make_objects(N, max_side)
            rplus = RPlusTree(space, capacity=16)
            dual = SpatialIndex(space)
            for i, r in enumerate(objects):
                rplus.insert(r, i)
                dual.insert(r, i)
            rplus.check()
            rows.append(
                (
                    max_side,
                    f"{rplus.stored_copies() / N:.2f}",
                    rplus.stats.forced_partitions,
                    1.0,  # the dual representation stores exactly one copy
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["max object side", "R+ copies/object", "R+ forced partitions",
         "dual copies/object"],
        rows,
        title=f"E-OBJ: object duplication, {N} objects",
    ))
    copies = [float(row[1]) for row in rows]
    # Duplication grows with object extent; the dual representation is
    # flat at exactly 1 by construction.
    assert copies == sorted(copies)
    assert copies[-1] > 1.3


def test_query_agreement_and_cost(benchmark):
    space = DataSpace.unit(2, resolution=18)
    objects = make_objects(N, 0.04, seed=41)
    rtree = RTree(space, capacity=16)
    rplus = RPlusTree(space, capacity=16)
    dual = SpatialIndex(space)
    for i, r in enumerate(objects):
        rtree.insert(r, i)
        rplus.insert(r, i)
        dual.insert(r, i)
    rng = random.Random(42)
    probes = [(rng.random(), rng.random()) for _ in range(200)]

    def run_queries():
        rt_pages = rp_pages = 0
        for p in probes:
            expected = {i for i, r in enumerate(objects) if r.contains_point(p)}
            rt_hits, a = rtree.containing_point(p)
            rp_hits, b = rplus.containing_point(p)
            dual_hits = {v for _, v in dual.containing_point(p)}
            assert {v for _, v in rt_hits} == expected
            assert {v for _, v in rp_hits} == expected
            assert dual_hits == expected
            rt_pages += a
            rp_pages += b
        return rt_pages / len(probes), rp_pages / len(probes)

    rt_mean, rp_mean = benchmark.pedantic(run_queries, rounds=1, iterations=1)
    print(f"\nstabbing cost per query: R-tree {rt_mean:.1f} pages "
          f"(height {rtree.height}), R+-tree {rp_mean:.1f} pages "
          f"(height {rplus.height}) — all three structures agree on "
          f"every answer")
    # The R-tree's overlap costs it multiple root-leaf paths per stab.
    assert rt_mean > rtree.height + 1
