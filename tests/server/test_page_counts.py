"""Exact page counts of a seeded served run, pinned.

The benchmark's page metrics are means over however many reads fit its
time window, so they cannot show that a change left page traffic as it
was.  This run can: a served bulk load and churn through the app, then a
fixed set of get, range and kNN queries on one snapshot each, with every
count asserted exactly.  A change that moves any of them either changed
what the tree does or must re-record them, and says so.

The same queries then go through ``/v1/get``, ``/v1/range`` and
``/v1/knn``, and ``/metrics`` must carry the pinned totals in the
``repro_serve_<kind>_pages`` ``_sum``/``_count`` lines, which are what
the benchmark reads its page metrics from.
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
    queries = []
    for _ in range(QUERIES):
        snapshot = service.snapshot()
        point = rng.choice(points)
        snapshot.get(point)
        assert snapshot.store.reads == height + 1
        get_pages += snapshot.store.reads
        x, y = rng.random() * 0.9, rng.random() * 0.9
        box = ((x, y), (x + 0.1, y + 0.1))
        range_pages += service.snapshot().range_query(*box).pages_visited
        centre = (rng.random(), rng.random())
        knn_pages += service.snapshot().nearest(centre, k=10).pages_visited
        queries.append((point, box, centre))
    return (*bulk, *churn, get_pages, range_pages, knn_pages), app, queries


def exposition_samples(app):
    response = app.handle("GET", "/metrics", None)
    assert response.status == 200
    samples = {}
    for line in response.payload.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return samples


@pytest.mark.parametrize("layout", ["columnar", "object"])
def test_page_counts_repeat_exactly(layout):
    counts, _, _ = run(layout)
    assert counts == EXPECTED


def test_served_page_metrics_carry_the_pinned_totals():
    _, app, queries = run("columnar")
    for point, (lows, highs), centre in queries:
        post(app, "/v1/get", {"point": list(point)})
        post(app, "/v1/range", {"lows": list(lows), "highs": list(highs)})
        post(app, "/v1/knn", {"point": list(centre), "k": 10})
    samples = exposition_samples(app)
    for kind, pinned in zip(("get", "range", "knn"), EXPECTED[4:]):
        assert samples[f"repro_serve_{kind}_pages_sum"] == pinned
        assert samples[f"repro_serve_{kind}_pages_count"] == QUERIES
