"""Exact page counts of a seeded served run, pinned.

The benchmark's page metrics are means over however many reads fit its
time window, so they cannot show that a change left page traffic as it
was.  This run can: a served bulk load and churn through the app, then a
fixed set of get, range and kNN queries on one snapshot each, with every
count asserted exactly.  A change that moves any of them either changed
what the tree does or must re-record them, and says so.
"""

import json
import random

import pytest

from repro.concurrency import TreeService
from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.server.app import ServingApp

LOADED = 4_000
CHURN = 4_000
QUERIES = 300

#: ``(bulk reads, bulk writes, churn reads, churn writes, get pages,
#: range pages, kNN pages)``; both layouts read the same.
EXPECTED = (1951, 450, 16935, 4214, 1200, 7039, 4822)


def post(app, path, payload):
    response = app.handle("POST", path, json.dumps(payload).encode())
    assert response.status in (200, 201), response.payload
    return response


def run(layout):
    rng = random.Random(30)
    space = DataSpace.unit(2)
    service = TreeService(BVTree(space, layout=layout))
    app = ServingApp(service)
    stats = service.tree.store.stats
    live = {}
    while len(live) < LOADED:
        point = (rng.random(), rng.random())
        live.setdefault(space.point_path(point), point)
    post(
        app,
        "/v1/bulk",
        {"records": [[list(p), i] for i, p in enumerate(live.values())]},
    )
    bulk = (stats.reads, stats.writes)

    for i in range(CHURN):
        if rng.random() < 0.5:
            point = (rng.random(), rng.random())
            if space.point_path(point) in live:
                continue
            live[space.point_path(point)] = point
            post(app, "/v1/insert", {"point": list(point), "value": i})
        else:
            path = rng.choice(list(live))
            post(app, "/v1/delete", {"point": list(live.pop(path))})
    churn = (stats.reads - bulk[0], stats.writes - bulk[1])

    height = service.snapshot().height
    points = list(live.values())
    get_pages = range_pages = knn_pages = 0
    for _ in range(QUERIES):
        snapshot = service.snapshot()
        snapshot.get(rng.choice(points))
        assert snapshot.store.reads == height + 1
        get_pages += snapshot.store.reads
        x, y = rng.random() * 0.9, rng.random() * 0.9
        range_pages += service.snapshot().range_query(
            (x, y), (x + 0.1, y + 0.1)
        ).pages_visited
        knn_pages += service.snapshot().nearest(
            (rng.random(), rng.random()), k=10
        ).pages_visited
    return (*bulk, *churn, get_pages, range_pages, knn_pages)


@pytest.mark.parametrize("layout", ["columnar", "object"])
def test_page_counts_repeat_exactly(layout):
    assert run(layout) == EXPECTED
