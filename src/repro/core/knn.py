"""k-nearest-neighbour search over a BV-tree.

Classic best-first (branch-and-bound) traversal: a priority queue holds
entries ordered by the minimum distance from the query point to their
*block*.  Because every record is stored in exactly one page, visiting an
entry whenever its block could still beat the current k-th best distance
is correct even though enclosing blocks overlap the blocks nested inside
them (holey regions only determine ownership, not placement of blocks).

Not part of the paper's evaluation — an extension the symmetric index
makes natural (the same traversal on a Z-order B-tree would have to
decompose the growing search ball into intervals).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import GeometryError, ReproError, TreeInvariantError
from repro.core.node import DataPage, IndexNode
from repro.geometry.bitgrid import key_min_dist_sq
from repro.geometry.rect import Rect
from repro.obs.events import QUERY_PRUNE, QUERY_VISIT
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import BVTree


@dataclass
class Neighbour:
    """One k-NN result."""

    point: tuple[float, ...]
    value: Any
    distance: float


@dataclass
class KNNResult:
    """k-NN results plus the traversal's page-access cost."""

    neighbours: list[Neighbour]
    pages_visited: int

    def points(self) -> list[tuple[float, ...]]:
        """The neighbour points, nearest first."""
        return [n.point for n in self.neighbours]

    def __len__(self) -> int:
        return len(self.neighbours)


def _min_dist_sq(point: Sequence[float], rect: Rect) -> float:
    """Reference lower bound via a decoded ``Rect`` (tests compare the
    bit-native :func:`~repro.geometry.bitgrid.key_min_dist_sq` against it)."""
    total = 0.0
    for x, lo, hi in zip(point, rect.lows, rect.highs):
        if x < lo:
            total += (lo - x) ** 2
        elif x > hi:
            total += (x - hi) ** 2
    return total


def nearest_neighbours(
    tree: "BVTree", point: Sequence[float], k: int = 1
) -> KNNResult:
    """The ``k`` stored records nearest to ``point`` (Euclidean).

    Ties at equal distance are broken arbitrarily; fewer than ``k``
    results are returned when the tree holds fewer records.
    """
    if k < 1:
        raise ReproError(f"k must be at least 1, got {k}")
    if len(point) != tree.space.ndim:
        raise GeometryError(
            f"query point has {len(point)} dimensions, space has "
            f"{tree.space.ndim}"
        )
    query = tuple(float(x) for x in point)
    tracer = tree.tracer
    if tracer.enabled:
        return best_first(tree, query, k, tracer)
    return tree.page_layout.nearest(tree, query, k)


def best_first(
    tree: "BVTree",
    query: tuple[float, ...],
    k: int,
    tracer: Tracer | None = None,
) -> KNNResult:
    """The generic best-first traversal, on either page layout.

    With ``tracer`` set, every visited and pruned block is recorded as a
    ``query_visit``/``query_prune`` event.
    """
    counter = itertools.count()  # tie-breaker: heap entries stay orderable
    heap: list[tuple[float, int, Any]] = [(0.0, next(counter), tree.root_entry())]
    best: list[tuple[float, int, Neighbour]] = []  # max-heap via negation
    pages_visited = 0

    while heap:
        dist_sq, _, entry = heapq.heappop(heap)
        if len(best) == k and dist_sq > -best[0][0]:
            break
        pages_visited += 1
        if tracer is not None:
            tracer.emit(
                QUERY_VISIT,
                level=entry.level,
                key=entry.key.bit_string(),
                page=entry.page,
                dist=math.sqrt(dist_sq),
            )
        node = tree.store.read(entry.page)
        if isinstance(node, DataPage):
            for stored, value in node.records.values():
                d = sum((a - b) ** 2 for a, b in zip(stored, query))
                if len(best) < k:
                    heapq.heappush(
                        best,
                        (-d, next(counter), Neighbour(stored, value, math.sqrt(d))),
                    )
                elif d < -best[0][0]:
                    heapq.heapreplace(
                        best,
                        (-d, next(counter), Neighbour(stored, value, math.sqrt(d))),
                    )
            continue
        if not isinstance(node, IndexNode):
            raise TreeInvariantError(
                f"page {entry.page} holds neither a data page nor an "
                f"index node: {type(node).__name__}"
            )
        for child in node.entries:
            # Bit-native lower bound: identical floats to decoding the
            # block Rect first, without allocating it per visited entry.
            d = key_min_dist_sq(tree.space, child.key, query)
            if len(best) < k or d <= -best[0][0]:
                heapq.heappush(heap, (d, next(counter), child))
            elif tracer is not None:
                tracer.emit(
                    QUERY_PRUNE,
                    level=child.level,
                    key=child.key.bit_string(),
                    page=child.page,
                    dist=math.sqrt(d),
                    radius=math.sqrt(-best[0][0]),
                )

    ordered = sorted((n for _, _, n in best), key=lambda n: n.distance)
    return KNNResult(neighbours=ordered, pages_visited=pages_visited)

