"""Unit tests for the data space and bit-path encoding."""

import random

import pytest

from repro.errors import (
    DimensionMismatchError,
    GeometryError,
    OutOfSpaceError,
)
from repro.geometry.rect import Rect
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.geometry.space import DataSpace


class TestConstruction:
    def test_unit(self):
        s = DataSpace.unit(3)
        assert s.ndim == 3
        assert s.bounds == ((0.0, 1.0),) * 3
        assert s.path_bits == 3 * 32

    def test_custom_bounds(self):
        s = DataSpace([(-10.0, 10.0), (0.0, 100.0)], resolution=8)
        assert s.ndim == 2
        assert s.path_bits == 16

    def test_rejects_empty_domain(self):
        with pytest.raises(GeometryError):
            DataSpace([(1.0, 1.0)])

    def test_rejects_no_dimensions(self):
        with pytest.raises(GeometryError):
            DataSpace([])

    def test_rejects_bad_resolution(self):
        with pytest.raises(GeometryError):
            DataSpace.unit(1, resolution=0)
        with pytest.raises(GeometryError):
            DataSpace.unit(1, resolution=65)

    def test_equality(self):
        assert DataSpace.unit(2, 16) == DataSpace.unit(2, 16)
        assert DataSpace.unit(2, 16) != DataSpace.unit(2, 8)
        assert DataSpace.unit(2, 16) != DataSpace.unit(3, 16)

    def test_immutable(self):
        s = DataSpace.unit(1)
        with pytest.raises(AttributeError):
            s.ndim = 5


class TestGrid:
    def test_origin_maps_to_zero(self):
        s = DataSpace.unit(2, resolution=8)
        assert s.grid((0.0, 0.0)) == (0, 0)

    def test_high_edge_clamps_to_last_cell(self):
        s = DataSpace.unit(1, resolution=8)
        assert s.grid((1.0,)) == (255,)

    def test_midpoint(self):
        s = DataSpace.unit(1, resolution=8)
        assert s.grid((0.5,)) == (128,)

    def test_scaled_bounds(self):
        s = DataSpace([(-1.0, 1.0)], resolution=8)
        assert s.grid((0.0,)) == (128,)

    def test_out_of_space(self):
        s = DataSpace.unit(1)
        with pytest.raises(OutOfSpaceError):
            s.grid((1.5,))
        with pytest.raises(OutOfSpaceError):
            s.grid((-0.1,))

    def test_dim_mismatch(self):
        s = DataSpace.unit(2)
        with pytest.raises(DimensionMismatchError):
            s.grid((0.5,))


class TestPointPath:
    def test_interleaving_cycles_dimensions(self):
        # resolution 2, 2-d: path bits are x1 y1 x0 y0 (MSB-first per dim).
        s = DataSpace.unit(2, resolution=2)
        # point (0.75, 0.25) -> grid (3, 1) = (0b11, 0b01)
        path = s.point_path((0.75, 0.25))
        # bits in order: x MSB (1), y MSB (0), x LSB (1), y LSB (1)
        assert path == 0b1011

    def test_first_bit_is_first_dimension_msb(self):
        s = DataSpace.unit(2, resolution=4)
        high_x = s.point_path((0.9, 0.1))
        assert (high_x >> (s.path_bits - 1)) & 1 == 1
        low_x = s.point_path((0.1, 0.9))
        assert (low_x >> (s.path_bits - 1)) & 1 == 0

    def test_point_key_prefix_of_path(self):
        s = DataSpace.unit(3, resolution=8)
        p = (0.3, 0.6, 0.9)
        path = s.point_path(p)
        for depth in (0, 1, 5, s.path_bits):
            k = s.point_key(p, depth)
            assert k.nbits == depth
            assert k.contains_path(path, s.path_bits)

    def test_point_key_depth_bounds(self):
        s = DataSpace.unit(1, resolution=4)
        with pytest.raises(GeometryError):
            s.point_key((0.5,), 5)

    def test_grid_path_dim_mismatch(self):
        s = DataSpace.unit(2, resolution=4)
        with pytest.raises(DimensionMismatchError):
            s.grid_path((1,))


class TestKeyRect:
    def test_root_key_is_whole_space(self):
        s = DataSpace([(0.0, 4.0), (-2.0, 2.0)], resolution=8)
        assert s.key_rect(ROOT_KEY) == s.whole_rect()

    def test_first_halving_cuts_first_dimension(self):
        s = DataSpace.unit(2, resolution=8)
        left = s.key_rect(RegionKey.from_bits("0"))
        right = s.key_rect(RegionKey.from_bits("1"))
        assert left == Rect((0.0, 0.0), (0.5, 1.0))
        assert right == Rect((0.5, 0.0), (1.0, 1.0))

    def test_second_halving_cuts_second_dimension(self):
        s = DataSpace.unit(2, resolution=8)
        assert s.key_rect(RegionKey.from_bits("01")) == Rect(
            (0.0, 0.5), (0.5, 1.0)
        )

    def test_children_tile_parent(self):
        s = DataSpace.unit(3, resolution=8)
        parent = RegionKey.from_bits("0101")
        r = s.key_rect(parent)
        r0 = s.key_rect(parent.child(0))
        r1 = s.key_rect(parent.child(1))
        assert not r0.intersects(r1)
        assert r.contains_rect(r0) and r.contains_rect(r1)
        assert r0.volume() + r1.volume() == pytest.approx(r.volume())

    def test_key_too_deep(self):
        s = DataSpace.unit(1, resolution=2)
        with pytest.raises(GeometryError):
            s.key_rect(RegionKey.from_bits("000"))

    def test_point_key_block_contains_point(self):
        s = DataSpace.unit(2, resolution=10)
        p = (0.123, 0.456)
        for depth in (1, 4, 9):
            assert s.key_rect(s.point_key(p, depth)).contains_point(p)

    def test_repr(self):
        assert "resolution=16" in repr(DataSpace.unit(2, 16))


class TestGridPathFastInterleave:
    """The 2-d Morton fast path must match the generic interleave exactly."""

    @staticmethod
    def generic_interleave(grid, resolution):
        path = 0
        for level in range(resolution - 1, -1, -1):
            for g in grid:
                path = (path << 1) | ((g >> level) & 1)
        return path

    def test_matches_generic_loop_across_resolutions(self):
        rng = random.Random(55)
        for resolution in (1, 3, 8, 16, 20, 32, 64):
            space = DataSpace.unit(2, resolution=resolution)
            for _ in range(200):
                grid = (rng.getrandbits(resolution), rng.getrandbits(resolution))
                assert space.grid_path(grid) == self.generic_interleave(
                    grid, resolution
                )

    def test_three_dimensions_use_generic_path(self):
        space = DataSpace.unit(3, resolution=8)
        grid = (0b10110001, 0b01011100, 0b11100010)
        assert space.grid_path(grid) == self.generic_interleave(grid, 8)

    def test_extremes(self):
        space = DataSpace.unit(2, resolution=16)
        full = (1 << 16) - 1
        assert space.grid_path((0, 0)) == 0
        assert space.grid_path((full, full)) == (1 << 32) - 1
        # dim 0 occupies the more significant bit of each pair
        assert space.grid_path((full, 0)) == int("10" * 16, 2)
        assert space.grid_path((0, full)) == int("01" * 16, 2)


class TestDecodeRect:
    """key_rect decodes keys of any depth up to path_bits, and no deeper."""

    def test_decode_rect_rejects_deep_keys(self):
        space = DataSpace.unit(1, resolution=2)
        with pytest.raises(GeometryError):
            space.key_rect(RegionKey.from_bits("000"))
        for ndim, resolution in ((1, 2), (2, 5), (3, 4)):
            space = DataSpace.unit(ndim, resolution=resolution)
            deepest = RegionKey(space.path_bits, (1 << space.path_bits) - 1)
            assert space.key_rect(deepest).volume() == pytest.approx(
                2.0 ** -space.path_bits
            )
            with pytest.raises(GeometryError):
                space.key_rect(deepest.child(0))


class TestKeyRectDecode:
    def test_matches_halving_by_halving_decode(self):
        """key_rect equals a decode that halves a float box bit by bit."""
        rng = random.Random(66)
        space = DataSpace([(-3.0, 5.0), (0.0, 1.0)], resolution=12)
        for _ in range(100):
            nbits = rng.randrange(0, space.path_bits + 1)
            key = RegionKey(nbits, rng.getrandbits(nbits) if nbits else 0)
            lows = [lo for lo, _ in space.bounds]
            highs = [hi for _, hi in space.bounds]
            for t, bit in enumerate(key.bits()):
                dim = t % space.ndim
                mid = (lows[dim] + highs[dim]) / 2
                if bit:
                    lows[dim] = mid
                else:
                    highs[dim] = mid
            rect = space.key_rect(key)
            assert rect.lows == pytest.approx(lows, abs=1e-12)
            assert rect.highs == pytest.approx(highs, abs=1e-12)
