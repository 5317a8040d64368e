"""Bit-native pruning in the baselines and the spatial index.

``BangFile.range_query``, ``LSDTree.range_query`` and
``SpatialIndex.intersecting`` prune with the integer cell cut-offs of
:mod:`repro.geometry.bitgrid`.  Each is checked here against a traversal
written in this file that decodes every popped block into a float
``Rect`` (``space.key_rect``) and prunes with ``Rect.intersects``: the
records, their order and the pages (blocks) visited must all agree,
including boxes whose edges lie exactly on block edges.
"""

import random

import pytest

from repro.baselines.bangfile import BangFile
from repro.baselines.lsdtree import LSDTree
from repro.core.node import DataPage
from repro.core.query import QueryResult
from repro.core.spatial import SpatialIndex
from repro.geometry.rect import Rect
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.geometry.space import DataSpace

SPACES = [
    DataSpace.unit(2, resolution=12),
    DataSpace([(-3.0, 5.0), (10.0, 10.75)], resolution=10),
]


def _points(space, n, seed):
    """Uniform points plus points sitting on coarse block edges."""
    rng = random.Random(seed)
    (lo0, hi0), (lo1, hi1) = space.bounds
    points = {
        (rng.uniform(lo0, hi0), rng.uniform(lo1, hi1)) for _ in range(n)
    }
    for i in range(16):
        for j in range(16):
            points.add((lo0 + i / 16 * (hi0 - lo0), lo1 + j / 16 * (hi1 - lo1)))
    return sorted(points)


def _random_key(rng, space, max_depth):
    nbits = rng.randrange(0, max_depth + 1)
    return RegionKey(nbits, rng.getrandbits(nbits) if nbits else 0)


def _boxes(space, seed):
    """Query boxes: exact blocks, block-edge mixes, random and oversized."""
    rng = random.Random(seed)
    (lo0, hi0), (lo1, hi1) = space.bounds
    boxes = [space.whole_rect()]
    for _ in range(40):
        block = space.key_rect(_random_key(rng, space, 10))
        boxes.append(block)
        other = space.key_rect(_random_key(rng, space, 10))
        lows = tuple(min(a, b) for a, b in zip(block.lows, other.lows))
        highs = tuple(max(a, b) for a, b in zip(block.highs, other.highs))
        boxes.append(Rect(lows, highs))
        # One edge on a block edge, the other free.
        highs = tuple(
            lo + rng.uniform(0.01, 1.0) * (hi - lo)
            for lo, hi in zip(block.lows, space.whole_rect().highs)
        )
        boxes.append(Rect(block.lows, highs))
    for _ in range(40):
        a0, b0 = sorted(rng.uniform(lo0 - 1, hi0 + 1) for _ in range(2))
        a1, b1 = sorted(rng.uniform(lo1 - 0.5, hi1 + 0.5) for _ in range(2))
        if a0 < b0 and a1 < b1:
            boxes.append(Rect((a0, a1), (b0, b1)))
    return boxes


def _float_range(space, store, root, children, rect):
    """The float-decode range traversal the integer cut-offs replaced."""
    result = QueryResult()
    stack = [root]
    while stack:
        page_id, key = stack.pop()
        if not space.key_rect(key).intersects(rect):
            continue
        result.pages_visited += 1
        node = store.read(page_id)
        if isinstance(node, DataPage):
            result.data_pages_visited += 1
            for point, value in node.records.values():
                if rect.contains_point(point):
                    result.records.append((point, value))
        else:
            stack.extend(children(node))
    return result


def _assert_same(got, expected):
    assert got.records == expected.records
    assert got.pages_visited == expected.pages_visited
    assert got.data_pages_visited == expected.data_pages_visited


@pytest.mark.parametrize("space", SPACES, ids=["unit", "offset"])
def test_bang_range_matches_float_decode(space):
    bang = BangFile(space, data_capacity=6, fanout=6)
    for i, point in enumerate(_points(space, 1500, seed=3)):
        bang.insert(point, i, replace=True)
    root = (bang.root_page, ROOT_KEY)

    def children(node):
        return [(e.page, e.key) for e in node.entries]

    for rect in _boxes(space, seed=4):
        expected = _float_range(space, bang.store, root, children, rect)
        _assert_same(bang.range_query(rect.lows, rect.highs), expected)


@pytest.mark.parametrize("space", SPACES, ids=["unit", "offset"])
def test_lsd_range_matches_float_decode(space):
    lsd = LSDTree(space, data_capacity=6, fanout=6)
    for i, point in enumerate(_points(space, 1500, seed=5)):
        lsd.insert(point, i, replace=True)
    root = (lsd.root_page, lsd._root_key)

    def children(node):
        return [(page, key) for key, page in node.entries]

    for rect in _boxes(space, seed=6):
        expected = _float_range(space, lsd.store, root, children, rect)
        _assert_same(lsd.range_query(rect.lows, rect.highs), expected)


class _CountingBuckets(dict):
    """Bucket map that counts lookups: one per block the query visits."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


@pytest.mark.parametrize("space", SPACES, ids=["unit", "offset"])
def test_spatial_intersecting_matches_float_decode(space):
    index = SpatialIndex(space, max_depth=14)
    rng = random.Random(8)
    whole = space.whole_rect()
    for i in range(600):
        if i % 3:
            block = space.key_rect(_random_key(rng, space, 12))
        else:
            corners = [
                sorted(rng.uniform(lo, hi) for _ in range(2))
                for lo, hi in zip(whole.lows, whole.highs)
            ]
            block = Rect([c[0] for c in corners], [c[1] for c in corners])
        index.insert(block, i)
    index._buckets = _CountingBuckets(index._buckets)

    for rect in _boxes(space, seed=9):
        expected = []
        visited = 0
        stack = [ROOT_KEY]
        while stack:
            key = stack.pop()
            if key not in index._weights:
                continue
            if not space.key_rect(key).intersects(rect):
                continue
            visited += 1
            for stored, value in dict.get(index._buckets, key, ()):
                if stored.intersects(rect):
                    expected.append((stored, value))
            if key.nbits < index.max_depth:
                stack.append(key.child(0))
                stack.append(key.child(1))
        before = index._buckets.gets
        assert list(index.intersecting(rect)) == expected
        assert index._buckets.gets - before == visited
