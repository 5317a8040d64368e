"""The bounded n-dimensional data space and its grid/bit-path encoding.

The paper treats records as points in the Cartesian product of the index
attribute domains.  :class:`DataSpace` pins that down concretely: each
dimension is a real interval, discretised to ``resolution`` bits, and every
point maps to an *interleaved bit path* — the infinite halving sequence of
the binary partition, truncated at the grid resolution.

Bit ``t`` of a path (counting from the first halving) refines dimension
``t % ndim``, so the partition cycles through the dimensions; this is the
symmetric treatment of dimensions the n-dimensional B-tree problem demands.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import (
    DimensionMismatchError,
    GeometryError,
    OutOfSpaceError,
)
from repro.geometry.rect import Rect
from repro.geometry.region import RegionKey, key_origins


def _spread_masks(bits: int) -> tuple[tuple[int, int], ...]:
    """Shift/mask steps that interleave zeros into a ``bits``-wide int.

    Step ``(s, m)`` doubles the gap between surviving bit groups:
    ``v = (v | (v << s)) & m``.  After all steps, bit ``i`` of the input
    sits at bit ``2*i`` of the output.
    """
    steps = []
    s = bits
    while s > 1:
        s >>= 1
        block = (1 << s) - 1
        mask = 0
        pos = 0
        while pos < 2 * bits:
            mask |= block << pos
            pos += 2 * s
        steps.append((s, mask))
    return tuple(steps)


#: Steps for the maximum 64-bit per-dimension resolution.
_SPREAD64 = _spread_masks(64)


def _spread_bits(v: int) -> int:
    """Bit ``i`` of ``v`` moved to bit ``2*i`` (Morton spreading)."""
    for shift, mask in _SPREAD64:
        v = (v | (v << shift)) & mask
    return v


class DataSpace:
    """A bounded data space with a fixed per-dimension bit resolution.

    Parameters
    ----------
    bounds:
        One ``(low, high)`` pair per dimension, ``low < high``.  Points are
        indexed in the half-open box ``[low, high)`` per dimension; as a
        pragmatic concession to floating-point workloads, a coordinate
        exactly equal to ``high`` is accepted and mapped to the last grid
        cell.
    resolution:
        Bits per dimension (default 32).  Two points whose coordinates agree
        in all leading ``resolution`` bits are indistinguishable to the
        partition and are treated as duplicates by the index structures.
    """

    __slots__ = ("bounds", "resolution", "ndim", "path_bits", "_spans")

    def __init__(
        self,
        bounds: Sequence[tuple[float, float]],
        resolution: int = 32,
    ):
        if not bounds:
            raise GeometryError("a data space needs at least one dimension")
        if not 1 <= resolution <= 64:
            raise GeometryError(
                f"resolution must be between 1 and 64 bits, got {resolution}"
            )
        checked = []
        for i, (lo, hi) in enumerate(bounds):
            lo, hi = float(lo), float(hi)
            if not lo < hi:
                raise GeometryError(
                    f"dimension {i} has empty domain [{lo}, {hi})"
                )
            checked.append((lo, hi))
        object.__setattr__(self, "bounds", tuple(checked))
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "ndim", len(checked))
        object.__setattr__(self, "path_bits", len(checked) * resolution)
        object.__setattr__(
            self, "_spans", tuple(hi - lo for lo, hi in checked)
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DataSpace is immutable")

    @classmethod
    def unit(cls, ndim: int, resolution: int = 32) -> "DataSpace":
        """The unit cube ``[0, 1)^ndim``."""
        return cls([(0.0, 1.0)] * ndim, resolution=resolution)

    @property
    def spans(self) -> tuple[float, ...]:
        """Per-dimension domain widths ``high - low``."""
        return self._spans

    # ------------------------------------------------------------------
    # Point encoding
    # ------------------------------------------------------------------

    def grid(self, point: Sequence[float]) -> tuple[int, ...]:
        """Map a point to integer grid coordinates in ``[0, 2**resolution)``."""
        if len(point) != self.ndim:
            raise DimensionMismatchError(
                f"point has {len(point)} dimensions, space has {self.ndim}"
            )
        cells = 1 << self.resolution
        out = []
        for i, (x, (lo, hi), span) in enumerate(
            zip(point, self.bounds, self._spans)
        ):
            if not lo <= x <= hi:
                raise OutOfSpaceError(
                    f"coordinate {x} of dimension {i} outside [{lo}, {hi}]"
                )
            g = int((x - lo) / span * cells)
            if g >= cells:  # x == hi, or float rounding at the top edge
                g = cells - 1
            out.append(g)
        return tuple(out)

    def point_path(self, point: Sequence[float]) -> int:
        """The interleaved bit path of a point, as a ``path_bits``-bit int.

        Bit ``t`` (MSB-first) is bit ``resolution - 1 - t // ndim`` of the
        grid coordinate of dimension ``t % ndim``.
        """
        # Inlined 2-d happy path: encode is on every get/insert/query,
        # and the generic grid() tuple + zip costs more than the whole
        # encode.  Any miss (wrong arity, out of bounds) falls through to
        # the generic path, which raises the canonical errors.
        if self.ndim == 2 and len(point) == 2:
            x0, x1 = point
            (lo0, hi0), (lo1, hi1) = self.bounds
            if lo0 <= x0 <= hi0 and lo1 <= x1 <= hi1:
                res = self.resolution
                cells = 1 << res
                s0, s1 = self._spans
                g0 = int((x0 - lo0) / s0 * cells)
                g1 = int((x1 - lo1) / s1 * cells)
                if g0 >= cells:
                    g0 = cells - 1
                if g1 >= cells:
                    g1 = cells - 1
                if res <= 32:
                    # One spread pass interleaves both coordinates: bit i
                    # of the packed word lands at bit 2*i, so the high
                    # half is spread(g0) << 64 and the low is spread(g1).
                    w = _spread_bits((g0 << 32) | g1)
                    return (w >> 63) | (w & 0xFFFFFFFFFFFFFFFF)
                return (_spread_bits(g0) << 1) | _spread_bits(g1)
        return self.grid_path(self.grid(point))

    def grid_path(self, grid: Sequence[int]) -> int:
        """Interleave pre-computed grid coordinates into a bit path."""
        if len(grid) != self.ndim:
            raise DimensionMismatchError(
                f"grid point has {len(grid)} dimensions, space has {self.ndim}"
            )
        if self.ndim == 2:
            # Morton spreading: a handful of shift/mask steps instead of
            # a loop over every resolution level.  Identical output to
            # the generic loop (the geometry tests assert it bit for
            # bit); this is the hot encode step of insert and bulk_load.
            g0, g1 = grid
            return (_spread_bits(g0) << 1) | _spread_bits(g1)
        path = 0
        res = self.resolution
        for level in range(res - 1, -1, -1):
            for g in grid:
                path = (path << 1) | ((g >> level) & 1)
        return path

    def point_key(self, point: Sequence[float], depth: int) -> RegionKey:
        """The depth-``depth`` partition block containing ``point``."""
        if not 0 <= depth <= self.path_bits:
            raise GeometryError(
                f"depth {depth} out of range [0, {self.path_bits}]"
            )
        path = self.point_path(point)
        return RegionKey(depth, path >> (self.path_bits - depth))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def key_rect(self, key: RegionKey) -> Rect:
        """Decode a region key into its block's coordinate rectangle.

        Pruning never needs this: range and k-NN queries test keys
        against the query with integer cell arithmetic
        (:mod:`repro.geometry.bitgrid`), which evaluates these same
        float expressions only once per query.  The decode serves the
        callers that need the block itself, such as the Z-order
        interval decomposition's containment test.
        """
        if key.nbits > self.path_bits:
            raise GeometryError(
                f"key of {key.nbits} bits exceeds space depth {self.path_bits}"
            )
        cells = 1 << self.resolution
        origins, halvings = key_origins(
            key.value, key.nbits, self.ndim, self.resolution
        )
        lows = []
        highs = []
        for (lo, _), span, o, h in zip(
            self.bounds, self._spans, origins, halvings
        ):
            lows.append(lo + o / cells * span)
            highs.append(lo + (o + (cells >> h)) / cells * span)
        return Rect(lows, highs)

    def whole_rect(self) -> Rect:
        """The rectangle covering the entire space."""
        return Rect(
            [lo for lo, _ in self.bounds], [hi for _, hi in self.bounds]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataSpace):
            return NotImplemented
        # Two spaces are interchangeable only when their bounds match
        # bit-for-bit (same grid, same point paths), so exact equality is
        # the contract — it must also stay consistent with __hash__.
        return self.bounds == other.bounds and self.resolution == other.resolution  # lint: ignore[R1] -- identity, matches __hash__

    def __hash__(self) -> int:
        return hash((self.bounds, self.resolution))

    def __repr__(self) -> str:
        dims = " x ".join(f"[{lo:g},{hi:g})" for lo, hi in self.bounds)
        return f"DataSpace({dims}, resolution={self.resolution})"
