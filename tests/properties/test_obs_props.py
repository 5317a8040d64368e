"""Property tests for the observability layer.

Two laws, each over randomised inputs:

- EXPLAIN's ``pages_touched`` equals ``height + 1`` on every exact
  match — the paper's §6 page-access guarantee, now checked through the
  trace rather than through IOStats, on trees with and without guards;
- ``key_prune_dim`` is ``None``, and ``key_intersects`` is true, exactly
  when the key's decoded float block (``space.key_rect``) intersects the
  query box — the integer cut-offs the EXPLAIN diagnostic and the
  hot-loop boolean prune with decide what the float geometry decides,
  edge-touching boxes included.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.tree import BVTree
from repro.geometry import Rect, key_intersects, key_prune_dim, query_cell_bounds
from repro.geometry.region import RegionKey
from repro.geometry.space import DataSpace

COORD = st.integers(min_value=0, max_value=(1 << 10) - 1)


def to_point(cell: tuple[int, int]) -> tuple[float, float]:
    return (cell[0] / 1024, cell[1] / 1024)


class TestExplainPageAccessLaw:
    @given(
        st.lists(
            st.tuples(COORD, COORD), min_size=1, max_size=150, unique=True
        )
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_pages_touched_is_height_plus_one(self, cells):
        space = DataSpace.unit(2, resolution=10)
        tree = BVTree(space, data_capacity=4, fanout=4)
        for i, cell in enumerate(cells):
            tree.insert(to_point(cell), i, replace=True)
        for cell in cells[:: max(1, len(cells) // 20)]:
            report = tree.explain(to_point(cell))
            assert report.result["found"] is True
            assert report.pages_touched == tree.height + 1
            assert len(report.steps) == tree.height

    def test_holds_with_and_without_guards(self):
        space = DataSpace.unit(2, resolution=10)
        guarded = BVTree(space, data_capacity=4, fanout=4)
        flat = BVTree(space, data_capacity=64, fanout=64)
        points = [
            ((i * 37 % 1024) / 1024, (i * 101 % 1024) / 1024)
            for i in range(500)
        ]
        for i, point in enumerate(points):
            guarded.insert(point, i, replace=True)
            flat.insert(point, i, replace=True)
        # The small-capacity tree must actually have guards for the
        # "with guards" half to mean anything; the large one must not.
        assert guarded.stats.demotions > 0
        assert flat.height <= 1
        guard_descents = 0
        for point in points[::23]:
            for tree in (guarded, flat):
                report = tree.explain(point)
                assert report.pages_touched == tree.height + 1
            guard_descents += sum(
                step["via"] == "guard"
                for step in guarded.explain(point).steps
            )
        assert guard_descents > 0


class TestPruneDimEquivalence:
    @given(
        nbits=st.integers(min_value=0, max_value=12),
        value_seed=st.integers(min_value=0, max_value=(1 << 12) - 1),
        box=st.tuples(COORD, COORD, COORD, COORD),
    )
    @settings(max_examples=300, deadline=None)
    def test_prune_dim_none_iff_intersects(self, nbits, value_seed, box):
        space = DataSpace.unit(2, resolution=6)
        value = value_seed & ((1 << nbits) - 1)
        x0, x1, y0, y1 = box
        rect = Rect(
            (min(x0, x1) / 1024, min(y0, y1) / 1024),
            (max(x0, x1) / 1024 + 1e-3, max(y0, y1) / 1024 + 1e-3),
        )
        bounds = query_cell_bounds(space, rect)
        args = (value, nbits, space.ndim, space.resolution, bounds)
        overlaps = space.key_rect(RegionKey(nbits, value)).intersects(rect)
        dim = key_prune_dim(*args)
        assert key_intersects(*args) == overlaps
        assert (dim is None) == overlaps
        if dim is not None:
            assert 0 <= dim < space.ndim
