"""Tests for the shared benchmark harness and table rendering."""

import pytest

from repro.errors import ReproError
from repro.bench.harness import (
    INDEX_KINDS,
    build_index,
    index_occupancies,
    occupancy_summary,
    search_cost,
)
from repro.obs.report import format_table
from repro.geometry.space import DataSpace
from repro.workloads import uniform


class TestBuildIndex:
    def test_all_kinds_build(self, unit2):
        points = list(uniform(300, 2, seed=50))
        for kind in INDEX_KINDS:
            index = build_index(kind, unit2, points, data_capacity=8, fanout=8)
            assert len(index) == len(set(points))
            assert search_cost(index, points[0]) == index.height + 1

    def test_unknown_kind(self, unit2):
        with pytest.raises(ReproError):
            build_index("btree2000", unit2, [])

    def test_occupancies_for_all_kinds(self, unit2):
        points = list(uniform(300, 2, seed=51))
        for kind in INDEX_KINDS:
            index = build_index(kind, unit2, points, data_capacity=8, fanout=8)
            data, idx = index_occupancies(index)
            assert sum(data) >= len(set(points))


class TestOccupancySummary:
    def test_basic(self):
        summary = occupancy_summary([2, 4, 6], capacity=8)
        assert summary.count == 3
        assert summary.minimum == 2
        assert summary.mean == pytest.approx(4.0)
        assert summary.fill_min == pytest.approx(0.25)
        assert summary.fill_mean == pytest.approx(0.5)

    def test_empty(self):
        summary = occupancy_summary([], capacity=8)
        assert summary.count == 0
        assert summary.fill_mean == 0.0


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "long header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        text = format_table(["x"], [[1]], title="hello")
        assert text.splitlines()[0] == "hello"

    def test_float_formatting(self):
        text = format_table(["v"], [[0.123456]])
        assert "0.123" in text
        assert "0.123456" not in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestErrorsHierarchy:
    def test_everything_is_reproerror(self):
        import repro.errors as errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_catchable_from_public_api(self, unit2):
        from repro import BVTree, KeyNotFoundError, ReproError

        tree = BVTree(unit2)
        with pytest.raises(ReproError):
            tree.get((0.1, 0.1))
        with pytest.raises(KeyNotFoundError):
            tree.get((0.1, 0.1))
