"""Bit-native query geometry must agree exactly with the float decode."""

import random

import pytest

from repro.errors import DimensionMismatchError
from repro.core.knn import _min_dist_sq
from repro.geometry.bitgrid import (
    key_intersects,
    key_min_dist_sq,
    key_origins,
    query_cell_bounds,
)
from repro.geometry.rect import Rect
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.geometry.space import DataSpace


def random_key(rng: random.Random, path_bits: int) -> RegionKey:
    nbits = rng.randrange(0, path_bits + 1)
    return RegionKey(nbits, rng.getrandbits(nbits) if nbits else 0)


def all_keys_to_depth(depth: int):
    for nbits in range(depth + 1):
        for value in range(1 << nbits):
            yield RegionKey(nbits, value)


class TestKeyOrigins:
    def test_root_key_is_whole_grid(self):
        origins, halvings = key_origins(0, 0, 2, 8)
        assert origins == [0, 0]
        assert halvings == [0, 0]

    def test_matches_key_rect_decode(self, unit2):
        rng = random.Random(11)
        cells = 1 << unit2.resolution
        for _ in range(200):
            key = random_key(rng, unit2.path_bits)
            origins, halvings = key_origins(
                key.value, key.nbits, unit2.ndim, unit2.resolution
            )
            rect = unit2.key_rect(key)
            for dim in range(unit2.ndim):
                lo, _ = unit2.bounds[dim]
                span = unit2.spans[dim]
                assert rect.lows[dim] == pytest.approx(
                    lo + origins[dim] / cells * span, abs=0.0
                )
                width = cells >> halvings[dim]
                assert rect.highs[dim] == pytest.approx(
                    lo + (origins[dim] + width) / cells * span, abs=0.0
                )


class TestIntersectionEquivalence:
    """key_intersects must equal key_rect(key).intersects(rect) everywhere."""

    def assert_equivalent(self, space, rect, keys):
        bounds = query_cell_bounds(space, rect)
        for key in keys:
            expected = space.key_rect(key).intersects(rect)
            got = key_intersects(
                key.value, key.nbits, space.ndim, space.resolution, bounds
            )
            assert got == expected, (key, rect)

    def test_exhaustive_small_space(self):
        space = DataSpace.unit(2, resolution=3)
        keys = list(all_keys_to_depth(space.path_bits))
        rng = random.Random(5)
        for _ in range(60):
            lows = tuple(rng.uniform(0.0, 0.9) for _ in range(2))
            highs = tuple(lo + rng.uniform(0.01, 0.5) for lo in lows)
            self.assert_equivalent(space, Rect(lows, highs), keys)

    def test_cell_aligned_query_edges(self):
        # Query edges sitting exactly on block boundaries are where a
        # strict-vs-nonstrict slip would change the visit set.
        space = DataSpace.unit(2, resolution=3)
        keys = list(all_keys_to_depth(space.path_bits))
        cells = 1 << space.resolution
        for i in range(cells):
            for j in range(i + 1, cells + 1):
                rect = Rect((i / cells, 0.25), (j / cells, 0.75))
                self.assert_equivalent(space, rect, keys)

    def test_random_keys_nonunit_bounds(self):
        space = DataSpace([(-3.0, 5.0), (10.0, 11.0)], resolution=10)
        rng = random.Random(9)
        keys = [random_key(rng, space.path_bits) for _ in range(300)]
        for _ in range(40):
            lows = (rng.uniform(-3.0, 4.0), rng.uniform(10.0, 10.9))
            highs = (
                lows[0] + rng.uniform(0.01, 2.0),
                lows[1] + rng.uniform(0.001, 0.1),
            )
            self.assert_equivalent(space, Rect(lows, highs), keys)

    def test_degenerate_and_outside_queries(self, unit2):
        keys = [ROOT_KEY, RegionKey(1, 0), RegionKey(2, 3)]
        # Queries clamped at the domain edge and far outside it.
        for rect in (
            Rect((0.0, 0.0), (1.0, 1.0)),
            Rect((0.999, 0.999), (1.0, 1.0)),
            Rect((2.0, 2.0), (3.0, 3.0)),
            Rect((-5.0, -5.0), (-4.0, -4.0)),
        ):
            self.assert_equivalent(unit2, rect, keys)

    def test_dimension_mismatch_rejected(self, unit2):
        with pytest.raises(DimensionMismatchError):
            query_cell_bounds(unit2, Rect((0.0,), (1.0,)))


class TestMinDistEquivalence:
    def test_matches_rect_lower_bound(self, unit3):
        rng = random.Random(21)
        for _ in range(300):
            key = random_key(rng, unit3.path_bits)
            point = tuple(rng.uniform(-0.2, 1.2) for _ in range(3))
            expected = _min_dist_sq(point, unit3.key_rect(key))
            assert key_min_dist_sq(unit3, key, point) == expected

    def test_zero_inside_block(self, unit2):
        key = RegionKey(2, 0)  # lower-left quadrant
        assert key_min_dist_sq(unit2, key, (0.1, 0.1)) == 0.0
