"""Range and partial-match queries.

A range query visits every entry whose *block* intersects the query box.
Because each data page is reachable through exactly one entry, no page is
visited twice and no guard-set logic is needed; holey-region semantics only
means a visited block may contain points owned by deeper regions, which the
per-record filter handles.  The visit count is the range-query cost metric
used in the [KSS+90]-style comparison against Z-order linearisation: the
BV-tree's region set contracts to the occupied part of the space, which is
exactly what that study found linear orderings cannot do.

Pruning is *bit-native*: the query box is converted once into per-dimension
integer cell cut-offs (:func:`repro.geometry.bitgrid.query_cell_bounds`)
and every visited block is tested by integer prefix arithmetic on its key —
no float ``Rect`` is allocated per visit.  The integer test is exactly
equivalent to the float one (see :mod:`repro.geometry.bitgrid`), so the
visit set and all page-access counts are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import GeometryError
from repro.core.node import DataPage, IndexNode
from repro.geometry.bitgrid import key_prune_dim, query_cell_bounds
from repro.geometry.rect import Rect
from repro.obs.events import QUERY_PRUNE, QUERY_VISIT
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import BVTree


@dataclass
class QueryResult:
    """Records found by a query plus its page-access cost."""

    records: list[tuple[tuple[float, ...], Any]] = field(default_factory=list)
    pages_visited: int = 0
    data_pages_visited: int = 0

    def points(self) -> list[tuple[float, ...]]:
        """Just the matching points."""
        return [point for point, _ in self.records]

    def __len__(self) -> int:
        return len(self.records)


def range_query(tree: "BVTree", rect: Rect) -> QueryResult:
    """All records inside the half-open box ``rect``.

    Untraced, the tree's page layout runs its own traversal; traced, the
    generic :func:`scan` runs and emits its visit/prune events.  Both
    visit the same pages in the same order.
    """
    if rect.ndim != tree.space.ndim:
        raise GeometryError(
            f"query box is {rect.ndim}-d, space is {tree.space.ndim}-d"
        )
    tracer = tree.tracer
    if tracer.enabled:
        return scan(tree, rect, tracer)
    return tree.page_layout.range_query(tree, rect)


def scan(tree: "BVTree", rect: Rect, tracer: Tracer | None = None) -> QueryResult:
    """The generic range traversal, on either page layout.

    Every popped block is tested against the query's integer cut-offs; a
    pruned block's event carries the dimension whose cut-off fired
    (:func:`key_prune_dim`).  With ``tracer`` unset no event is built.
    """
    result = QueryResult()
    space = tree.space
    bounds = query_cell_bounds(space, rect)
    ndim = space.ndim
    resolution = space.resolution
    read = tree.store.read
    contains = rect.contains_point
    stack = [tree.root_entry()]
    while stack:
        entry = stack.pop()
        key = entry.key
        dim = key_prune_dim(key.value, key.nbits, ndim, resolution, bounds)
        if dim is not None:
            if tracer is not None:
                tracer.emit(
                    QUERY_PRUNE,
                    level=entry.level,
                    key=key.bit_string(),
                    page=entry.page,
                    dim=dim,
                )
            continue
        result.pages_visited += 1
        if tracer is not None:
            tracer.emit(
                QUERY_VISIT,
                level=entry.level,
                key=key.bit_string(),
                page=entry.page,
            )
        if entry.level == 0:
            result.data_pages_visited += 1
            page: DataPage = read(entry.page)
            for point, value in page.records.values():
                if contains(point):
                    result.records.append((point, value))
        else:
            node: IndexNode = read(entry.page)
            stack.extend(node.entries)
    return result


def partial_match(tree: "BVTree", constraints: dict[int, float]) -> QueryResult:
    """Records with exact values on a subset of dimensions (paper §1).

    The match granularity is one grid cell of the space's resolution:
    records whose constrained coordinates fall in the same cell as the
    given values match.  Unconstrained dimensions span their full domain.
    """
    space = tree.space
    # Validate the constraint keys before any interval math: a caller
    # constraining a dimension that does not exist must hear about that
    # first, not about whichever per-dimension range problem the loop
    # happens to trip over earlier.
    unknown = set(constraints) - set(range(space.ndim))
    if unknown:
        raise GeometryError(f"constraints on unknown dimensions {sorted(unknown)}")
    if not constraints:
        return range_query(tree, space.whole_rect())
    cells = 1 << space.resolution
    lows: list[float] = []
    highs: list[float] = []
    for dim, (lo, hi) in enumerate(space.bounds):
        if dim in constraints:
            value = constraints[dim]
            if not lo <= value <= hi:
                raise GeometryError(
                    f"constraint {value} on dimension {dim} outside "
                    f"[{lo}, {hi}]"
                )
            span = hi - lo
            g = min(int((value - lo) / span * cells), cells - 1)
            lows.append(lo + g / cells * span)
            highs.append(lo + (g + 1) / cells * span)
        else:
            lows.append(lo)
            highs.append(hi)
    return range_query(tree, Rect(lows, highs))
