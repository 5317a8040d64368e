"""Differential property tests: columnar layout vs the object oracle.

Hypothesis drives the *same* random operation sequence against two
BV-trees that differ only in page layout — one built with
``layout="object"`` (object pages), one with ``layout="columnar"``
(packed array columns).  The object tree is the oracle: for every
operation the columnar tree must return identical answers, and at the
end of the sequence the structural counters (``OpCounters``) and
page-level I/O counters (``IOStats``) must match exactly — the columnar
layout is a representation change, not an algorithm change, so the two
trees must make the same splits, promotions and page accesses in the
same order.

This is the equivalence contract :mod:`repro.core.columnar` advertises
in its module docstring.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

import pytest

from repro.core.tree import BVTree
from repro.errors import KeyNotFoundError
from repro.geometry.space import DataSpace
from repro.storage.pager import PageStore

#: Low resolution so random points collide, split and merge aggressively.
RESOLUTION = 8
COORD = st.integers(min_value=0, max_value=(1 << RESOLUTION) - 1)
CELL = st.tuples(COORD, COORD)


def to_point(cell: tuple[int, int]) -> tuple[float, float]:
    scale = 1 << RESOLUTION
    return (cell[0] / scale, cell[1] / scale)


def make_pair() -> tuple[BVTree, BVTree]:
    """An object-layout tree and a columnar tree, same geometry."""
    space = DataSpace.unit(2, resolution=RESOLUTION)
    obj = BVTree(
        space, data_capacity=4, fanout=4, store=PageStore(), layout="object"
    )
    col = BVTree(
        space, data_capacity=4, fanout=4, store=PageStore(), layout="columnar"
    )
    assert obj.layout == "object" and col.layout == "columnar"
    return obj, col


def assert_counters_match(obj: BVTree, col: BVTree) -> None:
    """Structural and I/O counters must be bit-identical across layouts."""
    assert obj.stats.to_dict() == col.stats.to_dict()
    assert obj.store.stats.snapshot() == col.store.stats.snapshot()


def assert_same_structure(obj: BVTree, col: BVTree) -> None:
    assert len(obj) == len(col)
    assert obj.height == col.height
    obj.check(check_owners=True, check_occupancy=False)
    col.check(check_owners=True, check_occupancy=False)


@st.composite
def op_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=100))
    ops = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                [
                    "insert",
                    "insert",
                    "insert",
                    "delete",
                    "get",
                    "range",
                    "knn",
                ]
            )
        )
        if kind == "range":
            ops.append((kind, draw(CELL), draw(CELL)))
        elif kind == "knn":
            ops.append((kind, draw(CELL), draw(st.integers(1, 5))))
        else:
            ops.append((kind, draw(CELL)))
    return ops


def apply_lockstep(obj: BVTree, col: BVTree, op) -> None:
    """Run one operation on both trees and assert identical answers."""
    kind = op[0]
    if kind == "insert":
        point = to_point(op[1])
        value = op[1]
        obj.insert(point, value, replace=True)
        col.insert(point, value, replace=True)
    elif kind == "delete":
        point = to_point(op[1])
        try:
            expected = obj.delete(point)
        except KeyNotFoundError:
            with pytest.raises(KeyNotFoundError):
                col.delete(point)
        else:
            assert col.delete(point) == expected
    elif kind == "get":
        point = to_point(op[1])
        try:
            expected = obj.get(point)
        except KeyNotFoundError:
            with pytest.raises(KeyNotFoundError):
                col.get(point)
        else:
            assert col.get(point) == expected
    elif kind == "range":
        a, b = to_point(op[1]), to_point(op[2])
        cell = 1.0 / (1 << RESOLUTION)
        lows = [min(x, y) for x, y in zip(a, b)]
        # One cell past the max corner, so the half-open box is never
        # empty and always covers the corner points themselves.
        highs = [max(x, y) + cell for x, y in zip(a, b)]
        ro = obj.range_query(lows, highs)
        rc = col.range_query(lows, highs)
        assert sorted(ro.records) == sorted(rc.records)
        assert ro.pages_visited == rc.pages_visited
        assert ro.data_pages_visited == rc.data_pages_visited
    elif kind == "knn":
        point, k = to_point(op[1]), op[2]
        ko = obj.nearest(point, k=k)
        kc = col.nearest(point, k=k)
        # Equal-distance neighbours may tie-break differently; the
        # sorted distance multiset and the page-access count may not.
        assert [n.distance for n in ko.neighbours] == [
            n.distance for n in kc.neighbours
        ]
        assert ko.pages_visited == kc.pages_visited
    else:  # pragma: no cover - strategy is closed over these kinds
        raise AssertionError(kind)


class TestLockstepEquivalence:
    @given(op_sequences())
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_op_mix(self, ops):
        obj, col = make_pair()
        for op in ops:
            apply_lockstep(obj, col, op)
        assert_counters_match(obj, col)
        assert_same_structure(obj, col)

    @given(
        st.lists(CELL, min_size=1, max_size=120, unique=True),
        st.lists(CELL, min_size=0, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_then_updates(self, cells, extra):
        obj, col = make_pair()
        records = [(to_point(c), i) for i, c in enumerate(cells)]
        obj.bulk_load(records)
        col.bulk_load(records)
        assert_counters_match(obj, col)
        assert_same_structure(obj, col)
        for j, cell in enumerate(extra):
            apply_lockstep(obj, col, ("insert", cell))
            if j % 3 == 0:
                apply_lockstep(obj, col, ("delete", cell))
        assert_counters_match(obj, col)
        assert_same_structure(obj, col)
        for point, value in records:
            if point in [to_point(c) for c in extra]:
                continue
            assert col.get(point) == obj.get(point)

    @given(st.lists(CELL, min_size=5, max_size=80, unique=True), CELL, CELL)
    @settings(max_examples=40, deadline=None)
    def test_full_and_partial_scans_agree(self, cells, a, b):
        obj, col = make_pair()
        for i, cell in enumerate(cells):
            point = to_point(cell)
            obj.insert(point, i)
            col.insert(point, i)
        whole = obj.space.whole_rect()
        ro = obj.range_query(whole.lows, whole.highs)
        rc = col.range_query(whole.lows, whole.highs)
        assert sorted(ro.records) == sorted(rc.records)
        assert len(rc.records) == len(cells)
        apply_lockstep(obj, col, ("range", a, b))
        apply_lockstep(obj, col, ("knn", a, min(5, len(cells))))
        assert_counters_match(obj, col)
