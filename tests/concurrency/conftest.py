"""Shared fixtures for the concurrency suite.

Every test here builds tiny trees (capacity 4, fanout 4) so a handful
of inserts forces splits — including multi-level cascades — and reads
race against real structural churn, not quiet in-place updates.
"""

from __future__ import annotations

import random

import pytest

from repro.geometry.space import DataSpace

LAYOUTS = ("object", "columnar")


@pytest.fixture(params=LAYOUTS)
def layout(request):
    return request.param


def make_space(resolution: int = 8) -> DataSpace:
    return DataSpace.unit(2, resolution=resolution)


def distinct_points(n: int, space: DataSpace, seed: int = 0):
    """``n`` random points with pairwise-distinct tree paths."""
    rng = random.Random(seed)
    seen: set[int] = set()
    out: list[tuple[float, ...]] = []
    while len(out) < n:
        point = tuple(rng.random() for _ in range(space.ndim))
        path = space.point_path(point)
        if path not in seen:
            seen.add(path)
            out.append(point)
    return out


def fail_inserts_of(tree, monkeypatch, value):
    """Make ``tree.insert`` of ``value`` raise :class:`RuntimeError`
    after the insert changed pages, inside the op's own transaction."""
    insert = tree.insert

    def failing(point, v=None, replace=False):
        with tree.transaction("insert"):
            insert(point, v, replace=replace)
            if v == value:
                raise RuntimeError(f"injected failure inserting {value!r}")

    monkeypatch.setattr(tree, "insert", failing)
