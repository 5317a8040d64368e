"""Tests for range and partial-match queries."""

import random

import pytest

from repro.errors import GeometryError
from repro.core.query import QueryResult
from repro.core.tree import BVTree
from repro.geometry.rect import Rect
from repro.geometry.space import DataSpace
from tests.conftest import make_points


def range_query_rectpath(tree, rect):
    """The float-rect range query the bit-native pruning replaced.

    Decodes every visited block into a float :class:`Rect`
    (``space.key_rect``) and prunes with
    :meth:`Rect.intersects`.  It is the reference the integer cut-offs
    are checked against: same records, same pages.
    """
    if rect.ndim != tree.space.ndim:
        raise GeometryError(
            f"query box is {rect.ndim}-d, space is {tree.space.ndim}-d"
        )
    result = QueryResult()
    space = tree.space
    stack = [tree.root_entry()]
    while stack:
        entry = stack.pop()
        if not space.key_rect(entry.key).intersects(rect):
            continue
        result.pages_visited += 1
        if entry.level == 0:
            result.data_pages_visited += 1
            page = tree.store.read(entry.page)
            for point, value in page.records.values():
                if rect.contains_point(point):
                    result.records.append((point, value))
        else:
            stack.extend(tree.store.read(entry.page).entries)
    return result


def brute_range(points, lows, highs):
    return {
        p
        for p in points
        if all(lo <= x < hi for x, lo, hi in zip(p, lows, highs))
    }


class TestRangeQuery:
    def test_matches_brute_force(self, loaded_tree):
        points = {p for p, _ in loaded_tree.items()}
        rng = random.Random(77)
        for _ in range(25):
            lows = tuple(rng.uniform(0, 0.8) for _ in range(2))
            highs = tuple(lo + rng.uniform(0.05, 0.2) for lo in lows)
            result = loaded_tree.range_query(lows, highs)
            assert set(result.points()) == brute_range(points, lows, highs)

    def test_whole_space_returns_everything(self, loaded_tree):
        result = loaded_tree.range_query((0.0, 0.0), (1.0, 1.0))
        assert len(result) == len(loaded_tree)

    def test_empty_region_is_cheap(self, unit2):
        from repro.workloads import clustered

        tree = BVTree(unit2, data_capacity=8, fanout=8)
        for i, p in enumerate(clustered(2000, 2, clusters=2, spread=0.01, seed=1)):
            tree.insert(p, i, replace=True)
        whole = tree.range_query((0.0, 0.0), (1.0, 1.0))
        # A query over empty space touches almost nothing: the region set
        # contracts to the occupied subspaces (§1).
        centre = tree.range_query((0.45, 0.45), (0.55, 0.55))
        if len(centre) == 0:
            assert centre.pages_visited < whole.pages_visited / 4

    def test_dimension_mismatch(self, loaded_tree):
        with pytest.raises(GeometryError):
            loaded_tree.range_query((0.0,), (1.0,))

    def test_result_accessors(self, loaded_tree):
        result = loaded_tree.range_query((0.0, 0.0), (0.5, 0.5))
        assert len(result.points()) == len(result)
        assert result.data_pages_visited <= result.pages_visited


class TestRectPathEquivalence:
    """Bit-native pruning must match the seed float-rect path exactly."""

    def test_same_answers_and_same_page_counts(self, loaded_tree):
        rng = random.Random(101)
        for _ in range(40):
            lows = tuple(rng.uniform(0, 0.9) for _ in range(2))
            highs = tuple(lo + rng.uniform(0.01, 0.4) for lo in lows)
            fast = loaded_tree.range_query(lows, highs)
            slow = range_query_rectpath(loaded_tree, Rect(lows, highs))
            assert sorted(fast.records) == sorted(slow.records)
            assert fast.pages_visited == slow.pages_visited
            assert fast.data_pages_visited == slow.data_pages_visited

    def test_cell_aligned_edges(self, loaded_tree):
        # Boundaries landing exactly on partition planes are where an
        # inexact integer conversion would diverge from the float test.
        cells = 1 << loaded_tree.space.resolution
        for denom in (2, 4, 8, cells):
            rect = Rect((1 / denom, 0.0), (2 / denom, 1 / denom))
            fast = loaded_tree.range_query(rect.lows, rect.highs)
            slow = range_query_rectpath(loaded_tree, rect)
            assert sorted(fast.records) == sorted(slow.records)
            assert fast.pages_visited == slow.pages_visited

    def test_rectpath_dimension_mismatch(self, loaded_tree):
        with pytest.raises(GeometryError):
            range_query_rectpath(loaded_tree, Rect((0.0,), (1.0,)))


class TestPartialMatch:
    def test_single_dimension_constraint(self, unit2):
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        target_x = 0.372
        expected = set()
        for i in range(50):
            y = i / 50
            tree.insert((target_x, y), i, replace=True)
            expected.add((target_x, y))
        for p in make_points(200, 2, seed=41):
            tree.insert(p, None, replace=True)
        result = tree.partial_match({0: target_x})
        assert expected <= set(result.points())
        # Everything returned shares the constrained grid cell.
        cell = 1 / (1 << tree.space.resolution)
        for p in result.points():
            assert abs(p[0] - target_x) <= cell

    def test_symmetry_across_dimensions(self, unit3):
        # The n-dimensional B-tree requirement (§1): any combination of
        # m-of-n constrained attributes is served the same way.
        tree = BVTree(unit3, data_capacity=6, fanout=6)
        for i, p in enumerate(make_points(600, 3, seed=42)):
            tree.insert(p, i, replace=True)
        probe = (0.3, 0.6, 0.9)
        costs = []
        for dim in range(3):
            result = tree.partial_match({dim: probe[dim]})
            costs.append(result.pages_visited)
        assert max(costs) <= 4 * max(min(costs), 1)

    def test_all_dimensions_constrained_is_point_query(self, loaded_tree):
        point, value = next(iter(loaded_tree.items()))
        result = loaded_tree.partial_match({0: point[0], 1: point[1]})
        assert (point, value) in result.records

    def test_no_constraints_returns_all(self, loaded_tree):
        assert len(loaded_tree.partial_match({})) == len(loaded_tree)

    def test_unknown_dimension_rejected(self, loaded_tree):
        with pytest.raises(GeometryError):
            loaded_tree.partial_match({5: 0.3})

    def test_unknown_dimension_reported_before_domain_check(self, loaded_tree):
        # A mixed-error call must fail on the unknown dimension, not on
        # whichever out-of-domain value the interval loop meets first.
        with pytest.raises(GeometryError, match="unknown dimensions"):
            loaded_tree.partial_match({0: 99.0, 5: 0.2})

    def test_unknown_dimension_rejected_even_outside_domain(self, loaded_tree):
        with pytest.raises(GeometryError, match="unknown dimensions"):
            loaded_tree.partial_match({7: 123.456})

    def test_constraint_outside_domain_rejected(self, loaded_tree):
        with pytest.raises(GeometryError):
            loaded_tree.partial_match({0: 1.7})
