"""The core benchmark suite: what gets timed, over what data.

Every case runs over :mod:`repro.workloads` generators so the timed
populations are the same distributions the page-access benchmarks use.
The shared :class:`SuiteContext` is built once per run: the record set,
one bulk-loaded tree for the read-only query cases, and fixed query sets
(drawn from seeded RNGs, so two runs at the same scale time identical
work and their JSON outputs are comparable sample-for-sample).

The suite is the measurement side of the PR's three optimisations:

- ``insert`` vs ``bulk_load`` — the bottom-up builder against the
  incremental path it replaces for initial loads;
- ``exact_match``/``range``/``knn``/``buffered_get`` — descent, range
  scan, best-first search and the :class:`~repro.storage.BufferPool`
  read fast path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError
from repro.core import query as _query
from repro.core.tree import BVTree
from repro.geometry.rect import Rect
from repro.geometry.space import DataSpace
from repro.perf.registry import Case, Scale, benchmark
from repro.storage import BufferPool, default_store
from repro.workloads import uniform

__all__ = ["SuiteContext", "build_context"]


@dataclass
class SuiteContext:
    """Fixtures shared by every case of a suite run."""

    scale: Scale
    space: DataSpace
    records: list[tuple[tuple[float, ...], Any]]
    #: Bulk-loaded over ``records``; the read-only cases query it.
    tree: BVTree
    #: Stored points to look up (exact-match hits).
    query_points: list[tuple[float, ...]]
    #: Query boxes of mixed selectivity.
    rects: list[Rect]
    #: k-NN query points (not necessarily stored).
    knn_points: list[tuple[float, ...]]


def _make_tree(scale: Scale, space: DataSpace) -> BVTree:
    return BVTree(
        space,
        data_capacity=scale.data_capacity,
        fanout=scale.fanout,
        layout=scale.layout,
    )


def build_context(scale: Scale) -> SuiteContext:
    """Build the shared fixtures for one suite run."""
    if scale.n_points < 1:
        raise ReproError(
            f"n_points must be at least 1, got {scale.n_points}"
        )
    space = DataSpace.unit(scale.dims, resolution=scale.resolution)
    points = list(uniform(scale.n_points, scale.dims, seed=scale.seed))
    records: list[tuple[tuple[float, ...], Any]] = [
        (tuple(point), i) for i, point in enumerate(points)
    ]
    tree = _make_tree(scale, space)
    tree.bulk_load(records, replace=True)

    rng = random.Random(scale.seed + 1)
    query_points = [
        records[rng.randrange(len(records))][0]
        for _ in range(scale.n_queries)
    ]
    rects: list[Rect] = []
    for _ in range(scale.n_range_queries):
        # Mixed selectivity: edge lengths from ~1% to ~30% of the domain.
        lows = tuple(rng.uniform(0.0, 0.7) for _ in range(scale.dims))
        highs = tuple(lo + rng.uniform(0.01, 0.3) for lo in lows)
        rects.append(Rect(lows, highs))
    knn_points = [
        tuple(rng.random() for _ in range(scale.dims))
        for _ in range(scale.n_knn_queries)
    ]
    return SuiteContext(
        scale=scale,
        space=space,
        records=records,
        tree=tree,
        query_points=query_points,
        rects=rects,
        knn_points=knn_points,
    )


# ----------------------------------------------------------------------
# Build cases
# ----------------------------------------------------------------------


@benchmark("insert")
def _insert_case(scale: Scale, ctx: SuiteContext) -> Case:
    def setup() -> BVTree:
        return _make_tree(scale, ctx.space)

    def run(tree: BVTree) -> BVTree:
        for point, value in ctx.records:
            tree.insert(point, value, replace=True)
        return tree

    return Case(
        name="insert",
        description=f"incremental insert of {scale.n_points} points",
        ops=scale.n_points,
        run=run,
        setup=setup,
        counters=lambda tree: {
            "data_splits": tree.stats.data_splits,
            "height": tree.height,
        },
    )


@benchmark("bulk_load")
def _bulk_load_case(scale: Scale, ctx: SuiteContext) -> Case:
    def setup() -> BVTree:
        return _make_tree(scale, ctx.space)

    def run(tree: BVTree) -> BVTree:
        tree.bulk_load(ctx.records, replace=True)
        return tree

    return Case(
        name="bulk_load",
        description=f"bottom-up bulk load of {scale.n_points} points",
        ops=scale.n_points,
        run=run,
        setup=setup,
        counters=lambda tree: {
            "data_splits": tree.stats.data_splits,
            "height": tree.height,
        },
    )


@benchmark("exact_match")
def _exact_match_case(scale: Scale, ctx: SuiteContext) -> Case:
    def run(_: Any) -> int:
        tree = ctx.tree
        hits = 0
        for point in ctx.query_points:
            tree.get(point)
            hits += 1
        return hits

    return Case(
        name="exact_match",
        description=f"{scale.n_queries} exact-match descents (stored points)",
        ops=scale.n_queries,
        run=run,
        counters=lambda hits: {
            "hits": hits,
            "pages_per_search": ctx.tree.height + 1,
        },
    )


@benchmark("range")
def _range_case(scale: Scale, ctx: SuiteContext) -> Case:
    def run(_: Any) -> dict[str, int]:
        pages = 0
        found = 0
        for rect in ctx.rects:
            result = _query.range_query(ctx.tree, rect)
            pages += result.pages_visited
            found += len(result)
        return {"pages_visited": pages, "records_found": found}

    return Case(
        name="range",
        description=(
            f"{scale.n_range_queries} range queries, bit-native pruning"
        ),
        ops=scale.n_range_queries,
        run=run,
        counters=lambda out: out,
    )


@benchmark("knn")
def _knn_case(scale: Scale, ctx: SuiteContext) -> Case:
    def run(_: Any) -> dict[str, int]:
        pages = 0
        found = 0
        for point in ctx.knn_points:
            result = ctx.tree.nearest(point, k=scale.k)
            pages += result.pages_visited
            found += len(result)
        return {"pages_visited": pages, "records_found": found}

    return Case(
        name="knn",
        description=f"{scale.n_knn_queries} {scale.k}-NN searches",
        ops=scale.n_knn_queries,
        run=run,
        counters=lambda out: out,
    )


@benchmark("buffered_get")
def _buffered_get_case(scale: Scale, ctx: SuiteContext) -> Case:
    # Built once (reads do not mutate); sized so the working set mostly
    # fits, making the timed loop dominated by the read() hit path.
    pool = BufferPool(default_store(), capacity=1024)
    tree = BVTree(
        ctx.space,
        data_capacity=scale.data_capacity,
        fanout=scale.fanout,
        store=pool,
        layout=scale.layout,
    )
    tree.bulk_load(ctx.records, replace=True)
    for point in ctx.query_points:
        tree.get(point)  # warm the cache outside the timed region

    def run(_: Any) -> BufferPool:
        for point in ctx.query_points:
            tree.get(point)
        return pool

    return Case(
        name="buffered_get",
        description=(
            f"{scale.n_queries} exact-match descents through a warm "
            f"BufferPool"
        ),
        ops=scale.n_queries,
        run=run,
        counters=lambda p: {"hits": p.stats.hits, "misses": p.stats.misses},
    )
