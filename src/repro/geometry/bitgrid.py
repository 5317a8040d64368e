"""Bit-native query geometry: integer interval tests on region blocks.

The hot loops of range and nearest-neighbour queries visit thousands of
:class:`~repro.geometry.region.RegionKey` blocks per query.  Decoding
every visited key into a float :class:`~repro.geometry.rect.Rect` (one
object, two tuples and ``2·ndim`` float divisions per visit) dominates
the pruning cost.  This module replaces the decode with integer prefix
arithmetic on the grid:

- :func:`query_cell_bounds` converts a query rectangle **once** into
  per-dimension integer cut-offs over the space's grid cells;
- :func:`key_intersects` tests whether a key's block intersects those
  cut-offs using only shifts, adds and comparisons;
- :func:`key_min_dist_sq` computes the k-NN lower bound straight from
  the key bits, without materialising a ``Rect``.

Exactness
---------
The float pruning test is ``space.key_rect(key).intersects(rect)`` with
half-open semantics: per dimension, ``block_lo < q_hi and q_lo <
block_hi`` where ``block_lo = lo + o/cells*span`` for an integer cell
origin ``o``.  Because ``block_lo`` is a *monotone* function of ``o``
(float arithmetic is monotone), each strict/non-strict threshold against
a query coordinate corresponds to one integer cut-off, which
:func:`query_cell_bounds` finds by evaluating the same float expression
the decode would use and adjusting by ±1.  The integer test is therefore
*exactly* equivalent to the float test for every key — the set of
visited pages, and hence every page-access count, is unchanged.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import DimensionMismatchError
from repro.geometry.rect import Rect
from repro.geometry.region import RegionKey, key_origins
from repro.geometry.space import DataSpace

#: Per-dimension integer cut-offs ``(B, A)``: a block with cell origin
#: ``o`` and cell width ``w`` intersects the query iff ``o <= A`` and
#: ``o + w > B`` in every dimension.
CellBounds = tuple[tuple[int, int], ...]


def _last_cell_below(
    lo: float, span: float, cells: int, q: float, strict: bool
) -> int:
    """The largest ``m`` in ``[-1, cells]`` with ``lo + m/cells*span`` < ``q``
    (or <= ``q`` when ``strict`` is False); ``-1`` when no cell qualifies.

    Evaluates the exact float expression
    :meth:`~repro.geometry.space.DataSpace.key_rect` uses for block
    bounds, so the integer cut-off agrees with the float comparison on
    every representable block boundary.
    """
    x = (q - lo) / span * cells
    if x < -1.0:
        m = -1
    elif x > cells + 1.0:
        m = cells
    else:
        m = int(x) - 2  # start safely below, then walk up exactly
        if m < -1:
            m = -1
    while m > -1:
        v = lo + m / cells * span
        if v < q if strict else v <= q:
            break
        m -= 1
    while m < cells:
        v = lo + (m + 1) / cells * span
        if not (v < q if strict else v <= q):
            break
        m += 1
    return m


def query_cell_bounds(space: DataSpace, rect: Rect) -> CellBounds:
    """Convert a query rectangle into per-dimension integer cut-offs.

    Done once per query; afterwards every visited block is tested by
    :func:`key_intersects` with pure integer arithmetic.
    """
    if rect.ndim != space.ndim:
        raise DimensionMismatchError(
            f"query box is {rect.ndim}-d, space is {space.ndim}-d"
        )
    cells = 1 << space.resolution
    out = []
    for (lo, _), span, q_lo, q_hi in zip(
        space.bounds, space.spans, rect.lows, rect.highs
    ):
        # Block [o, o+w) intersects [q_lo, q_hi) iff block_lo < q_hi and
        # block_hi > q_lo, i.e. o <= A and o + w > B with:
        a = _last_cell_below(lo, span, cells, q_hi, strict=True)
        b = _last_cell_below(lo, span, cells, q_lo, strict=False)
        out.append((b, a))
    return tuple(out)


def key_prune_dim(
    value: int,
    nbits: int,
    ndim: int,
    resolution: int,
    bounds: CellBounds,
) -> int | None:
    """The first dimension whose cut-off disjoins the key's block, if any.

    Integer-only: decodes the key into per-dimension cell origins
    (:func:`~repro.geometry.region.key_origins`) and compares them
    against the precomputed ``(B, A)`` pairs.  Returns ``None`` when the
    block intersects the query (the key is *not* pruned), and otherwise
    the lowest dimension index on which the integer cut-off fired — the
    dimension EXPLAIN reports.  The generic range loop
    (:func:`repro.core.query.scan`) prunes with it.
    """
    origins, halvings = key_origins(value, nbits, ndim, resolution)
    for dim in range(ndim):
        b, a = bounds[dim]
        o = origins[dim]
        if o > a or o + (1 << (resolution - halvings[dim])) <= b:
            return dim
    return None


def key_intersects(
    value: int,
    nbits: int,
    ndim: int,
    resolution: int,
    bounds: CellBounds,
) -> bool:
    """Does the key's block intersect the query's cell cut-offs?

    Exactly equivalent to ``space.key_rect(key).intersects(rect)`` for
    the ``bounds`` produced by :func:`query_cell_bounds` on the same
    query.
    """
    return key_prune_dim(value, nbits, ndim, resolution, bounds) is None


def key_min_dist_sq(
    space: DataSpace, key: RegionKey, point: Sequence[float]
) -> float:
    """Squared min distance from ``point`` to the key's block.

    Computes the block's float bounds per dimension with the same
    expressions :meth:`~repro.geometry.space.DataSpace.key_rect` uses —
    so the bound is bit-for-bit identical to the ``Rect``-based one —
    but without allocating the rectangle.
    """
    ndim = space.ndim
    cells = 1 << space.resolution
    origins, halvings = key_origins(key.value, key.nbits, ndim, space.resolution)
    bounds = space.bounds
    spans = space.spans
    total = 0.0
    for dim in range(ndim):
        lo = bounds[dim][0]
        span = spans[dim]
        o = origins[dim]
        block_lo = lo + o / cells * span
        block_hi = lo + (o + (cells >> halvings[dim])) / cells * span
        x = point[dim]
        if x < block_lo:
            total += (block_lo - x) ** 2
        elif x > block_hi:
            total += (x - block_hi) ** 2
    return total
