"""Extended spatial objects on the binary partition (paper §8 outlook).

The paper's conclusion sketches future work: combining the BV-tree with
the dual point/object representation of [Fre89b] to index *extended*
objects (rectangles) directly, without ever splitting an object — the
defect of the R+-tree and of linearisations discussed in §1.

This module implements the core of that representation on the same
geometric substrate as the BV-tree: every object is assigned to its
**minimal enclosing binary block** — the longest region key whose block
contains the object's rectangle.  Blocks from the recursive binary
partition are nested or disjoint, so an object is never split, and an
intersection query descends the partition trie visiting exactly the
blocks that intersect the query and hold objects.

The paper does not evaluate this layer (it is §8 future work), so no
benchmark reproduces it; it ships as a tested extension with the
occupancy/page machinery intentionally left out.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Sequence

from repro.errors import GeometryError, KeyNotFoundError
from repro.geometry.bitgrid import key_intersects, query_cell_bounds
from repro.geometry.rect import Rect
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.geometry.space import DataSpace


class SpatialIndex:
    """Rectangles indexed by their minimal enclosing binary block."""

    def __init__(self, space: DataSpace, max_depth: int | None = None):
        self.space = space
        self.max_depth = (
            space.path_bits if max_depth is None else min(max_depth, space.path_bits)
        )
        if self.max_depth < 0:
            raise GeometryError(f"negative max depth {self.max_depth}")
        self.count = 0
        self._buckets: dict[RegionKey, list[tuple[Rect, Any]]] = {}
        # Number of objects stored at or below each block — the pruning
        # structure for queries (a counted prefix trie over bucket keys).
        self._weights: dict[RegionKey, int] = {}

    # ------------------------------------------------------------------
    # Block assignment
    # ------------------------------------------------------------------

    def enclosing_block(self, rect: Rect) -> RegionKey:
        """The longest binary block containing ``rect``.

        Computed as the common prefix of the bit paths of the rectangle's
        two extreme corners (the max corner nudged inside the half-open
        boundary), capped at ``max_depth``.
        """
        if rect.ndim != self.space.ndim:
            raise GeometryError(
                f"rect is {rect.ndim}-d, space is {self.space.ndim}-d"
            )
        if not self.space.whole_rect().contains_rect(rect):
            raise GeometryError(f"{rect!r} exceeds the data space")
        low_grid = self.space.grid(rect.lows)
        # The box is half-open: its extreme inner corner is just below
        # ``highs``.  Nudging by one float ulp (not one grid cell — the
        # edge rarely falls exactly on a cell boundary) finds the last
        # cell the object actually reaches into.
        nudged = tuple(
            max(low_bound, math.nextafter(h, -math.inf))
            for h, (low_bound, _) in zip(rect.highs, self.space.bounds)
        )
        high_grid = self.space.grid(nudged)
        low_path = self.space.grid_path(low_grid)
        high_path = self.space.grid_path(high_grid)
        bits = self.space.path_bits
        low_key = RegionKey(bits, low_path).prefix(self.max_depth)
        high_key = RegionKey(bits, high_path).prefix(self.max_depth)
        return low_key.common_prefix(high_key)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, rect: Rect, value: Any = None) -> None:
        """Store an object (duplicates of the same rect are allowed)."""
        key = self.enclosing_block(rect)
        self._buckets.setdefault(key, []).append((rect, value))
        for length in range(key.nbits + 1):
            prefix = key.prefix(length)
            self._weights[prefix] = self._weights.get(prefix, 0) + 1
        self.count += 1

    def delete(self, rect: Rect, value: Any = None) -> None:
        """Remove one object with this exact rectangle and value."""
        key = self.enclosing_block(rect)
        bucket = self._buckets.get(key, [])
        for i, (stored, stored_value) in enumerate(bucket):
            if stored == rect and stored_value == value:
                bucket.pop(i)
                break
        else:
            raise KeyNotFoundError(f"no object {rect!r} with value {value!r}")
        if not bucket:
            del self._buckets[key]
        for length in range(key.nbits + 1):
            prefix = key.prefix(length)
            self._weights[prefix] -= 1
            if not self._weights[prefix]:
                del self._weights[prefix]
        self.count -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def intersecting(self, rect: Rect) -> Iterator[tuple[Rect, Any]]:
        """All stored objects whose rectangle intersects ``rect``.

        Descends the counted trie: a block is visited only if it
        intersects the query and has objects at or below it, so empty
        space costs nothing — the contraction property linear orderings
        lack (§1).
        """
        space = self.space
        bounds = query_cell_bounds(space, rect)
        stack = [ROOT_KEY]
        while stack:
            key = stack.pop()
            if key not in self._weights:
                continue
            if not key_intersects(
                key.value, key.nbits, space.ndim, space.resolution, bounds
            ):
                continue
            for stored, value in self._buckets.get(key, ()):
                if stored.intersects(rect):
                    yield stored, value
            if key.nbits < self.max_depth:
                stack.append(key.child(0))
                stack.append(key.child(1))

    def containing_point(self, point: Sequence[float]) -> Iterator[tuple[Rect, Any]]:
        """All stored objects containing ``point`` (stabbing query)."""
        path = self.space.point_path(point)
        for length in range(self.max_depth + 1):
            key = RegionKey(length, path >> (self.space.path_bits - length))
            if key not in self._weights:
                break
            for stored, value in self._buckets.get(key, ()):
                if stored.contains_point(point):
                    yield stored, value

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"SpatialIndex({self.count} objects, {len(self._buckets)} blocks)"
