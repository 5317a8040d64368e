"""Mixed insert/delete operation streams (churn workloads).

The insertion-only generators exercise splitting and promotion; the
merge/demotion machinery of paper §5 only runs under *deletions*, and
the guarantee monitor's exactness claim is about arbitrary interleaved
mixes.  These generators yield ``(verb, point)`` operation tuples —
``("insert", point)`` or ``("delete", point)`` — the shape consumed by
:func:`repro.obs.report.run_doctor` and ``repro doctor --churn``.

Deletions always target a currently live point (the generator tracks
its own inserted set), so every operation is applicable in order —
*provided* the input points are distinct in the consuming tree's key
space.  The generators compare points as float tuples; a tree keys
records by the leading ``resolution`` bits of each coordinate, so two
distinct floats sharing a path are one record to the tree
(``replace=True`` folds them) but two live points to the generator.
Callers feeding dense or clustered populations must path-deduplicate
first with :func:`distinct_paths`, as the CLI and the perf health probe
do.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.geometry.space import DataSpace

__all__ = ["churn", "distinct_paths", "grow_shrink"]

Operation = tuple[str, tuple[float, ...]]


def distinct_paths(
    space: "DataSpace", points: Iterable[Sequence[float]]
) -> list[tuple[float, ...]]:
    """The first point of each tree path in ``points``, as float tuples.

    A tree keys records by the leading ``resolution`` bits of each
    coordinate, so two points sharing a path are one record; this keeps
    the first of them, in input order.
    """
    seen: set[int] = set()
    out = []
    for point in points:
        path = space.point_path(point)
        if path not in seen:
            seen.add(path)
            out.append(tuple(point))
    return out


def churn(
    points: Iterable[tuple[float, ...]],
    delete_fraction: float = 0.3,
    seed: int = 0,
) -> Iterator[Operation]:
    """Interleave deletions of random live points into an insert stream.

    Feeds through ``points`` in order; after each insertion, with
    probability ``delete_fraction / (1 - delete_fraction)`` a uniformly
    chosen live point is deleted, so deletions make up roughly
    ``delete_fraction`` of the operations while the population keeps
    growing.  Identical points repeated in the input are folded into one
    live entry, but the live set compares *float tuples* — points that
    differ as floats yet share a tree path must be deduplicated by the
    caller (see the module docstring).
    """
    if not 0.0 <= delete_fraction < 1.0:
        raise ReproError(
            f"delete_fraction must be in [0, 1), got {delete_fraction}"
        )
    rng = random.Random(seed)
    live: list[tuple[float, ...]] = []
    live_set: set[tuple[float, ...]] = set()
    odds = (
        delete_fraction / (1.0 - delete_fraction) if delete_fraction else 0.0
    )
    for point in points:
        point = tuple(point)
        yield ("insert", point)
        if point not in live_set:
            live.append(point)
            live_set.add(point)
        while live and odds and rng.random() < odds:
            index = rng.randrange(len(live))
            victim = live[index]
            live[index] = live[-1]
            live.pop()
            live_set.remove(victim)
            yield ("delete", victim)


def grow_shrink(
    points: Iterable[tuple[float, ...]],
    shrink_to: float = 0.1,
    seed: int = 0,
) -> Iterator[Operation]:
    """Insert everything, then delete back down to a small remnant.

    The full-drain phase drives the merge/absorb/buddy machinery hard
    (every region eventually underflows), finishing at
    ``ceil(shrink_to * n)`` survivors — the structural-shrink stressor
    for guarantee 1 under deletion.
    """
    if not 0.0 <= shrink_to <= 1.0:
        raise ReproError(f"shrink_to must be in [0, 1], got {shrink_to}")
    rng = random.Random(seed)
    live: list[tuple[float, ...]] = []
    live_set: set[tuple[float, ...]] = set()
    for point in points:
        point = tuple(point)
        yield ("insert", point)
        if point not in live_set:
            live.append(point)
            live_set.add(point)
    keep = -(-len(live) * shrink_to // 1)  # ceil without math import
    rng.shuffle(live)
    while len(live) > keep:
        yield ("delete", live.pop())
