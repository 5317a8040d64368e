"""Path deduplication for churn streams."""

from repro.geometry.space import DataSpace
from repro.workloads import distinct_paths


def test_keeps_first_point_per_path_in_order():
    space = DataSpace.unit(2, resolution=4)
    # (0.01, 0.01) and (0.02, 0.03) share the first 4-bit cell.
    points = [[0.01, 0.01], (0.5, 0.5), (0.02, 0.03), (0.9, 0.1), (0.5, 0.5)]
    assert distinct_paths(space, points) == [
        (0.01, 0.01), (0.5, 0.5), (0.9, 0.1)
    ]


def test_distinct_points_pass_through():
    space = DataSpace.unit(2, resolution=16)
    points = [(i / 10, 1 - i / 10) for i in range(10)]
    assert distinct_paths(space, iter(points)) == points
