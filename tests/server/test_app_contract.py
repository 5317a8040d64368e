"""Socket-free contract tests for the serving app.

:meth:`ServingApp.handle` is the whole API surface — the HTTP layer is
a shell around it — so these tests pin the wire contract (status codes,
JSON payload shapes, the error-mapping table from ``app.py``'s
docstring) by calling it directly: no socket, no event loop, no
batcher.
"""

import json
import re

import pytest

from repro.concurrency.service import BatchAbortedError, TreeService
from repro.errors import (
    DuplicateKeyError,
    GeometryError,
    KeyNotFoundError,
    ReproError,
    StorageError,
    TreeInvariantError,
)
from repro.geometry.space import DataSpace
from repro.obs.metrics import lint_prometheus
from repro.server.app import Response, ServingApp, status_for
from repro.storage.durable import create_durable_tree
from repro.storage.faults import FaultPlan
from tests.concurrency.lockstep import build_service


def make_app(**kwargs):
    service, _ = build_service()
    return ServingApp(service, **kwargs)


def post(app, path, payload):
    return app.handle("POST", path, json.dumps(payload).encode())


#: ``replace`` values that are not JSON booleans; each is a 400.
NOT_BOOLEAN = pytest.mark.parametrize(
    "flag", ["false", 0, 1, None], ids=["string", "zero", "one", "null"]
)

#: Two good bulk records.
TWO = [[[0.25, 0.25], "a"], [[0.75, 0.75], "b"]]

#: 1,000 distinct grid points as bulk records.
GRID = [
    [[(i % 32 + 0.5) / 32, (i // 32 + 0.5) / 32], i] for i in range(1000)
]


def not_boolean(name, flag):
    return f"{name} must be true or false, got {json.dumps(flag)}"


def seeded_app():
    """An app over a service holding a small known grid."""
    app = make_app()
    records = [
        [[i / 4 + 1 / 8, j / 4 + 1 / 8], i * 4 + j]
        for i in range(4)
        for j in range(4)
    ]
    response = post(app, "/v1/bulk", {"records": records})
    assert response.status == 201
    return app, records


class TestStatusForMapping:
    """The docstring's error table, asserted exception-by-exception."""

    @pytest.mark.parametrize(
        ("exc", "status"),
        [
            (KeyNotFoundError("missing"), 404),
            (DuplicateKeyError("dup"), 409),
            (GeometryError("bad box"), 400),
            (TreeInvariantError("broken"), 500),
            (StorageError("poisoned"), 503),
            (ReproError("validation"), 400),
            (ValueError("anything else"), 500),
        ],
    )
    def test_direct_mapping(self, exc, status):
        assert status_for(exc) == status

    def test_batch_abort_maps_its_cause(self):
        exc = BatchAbortedError(2, DuplicateKeyError("dup"))
        assert status_for(exc) == 409

    def test_batch_abort_never_surfaces_404(self):
        """A rejected batch is the request's fault, not a missing
        resource — the 404 cause degrades to 400."""
        exc = BatchAbortedError(1, KeyNotFoundError("missing"))
        assert status_for(exc) == 400


class TestDispatch:
    def test_unknown_path_is_404(self):
        response = make_app().handle("POST", "/v1/nope", b"{}")
        assert response.status == 404
        assert "no route" in response.payload["error"]

    def test_wrong_method_on_known_path_is_405(self):
        response = make_app().handle("GET", "/v1/get", None)
        assert response.status == 405
        response = make_app().handle("POST", "/health", b"{}")
        assert response.status == 405

    def test_malformed_json_body_is_400(self):
        response = make_app().handle("POST", "/v1/get", b"{not json")
        assert response.status == 400
        assert response.payload["kind"] == "ReproError"

    def test_non_object_json_body_is_400(self):
        response = make_app().handle("POST", "/v1/get", b"[1, 2]")
        assert response.status == 400

    def test_handle_never_raises(self):
        app = make_app()
        for method, path, body in [
            ("POST", "/v1/insert", b"\xff\xfe"),
            ("POST", "/v1/knn", b'{"point": "oops"}'),
            ("DELETE", "/v1/get", None),
            ("POST", "/v1/range", b'{"lows": []}'),
        ]:
            response = app.handle(method, path, body)
            assert isinstance(response, Response)
            assert 400 <= response.status < 600

    def test_json_responses_serialize(self):
        app, _ = seeded_app()
        response = post(app, "/v1/get", {"point": [1 / 8, 1 / 8]})
        body = response.body_bytes()
        assert body.endswith(b"\n")
        assert json.loads(body) == response.payload


class TestPointValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"point": []},
            {"point": "0.5,0.5"},
            {"point": [0.5, "x"]},
            {"point": [True, False]},
        ],
    )
    def test_bad_point_is_400(self, payload):
        response = post(make_app(), "/v1/get", payload)
        assert response.status == 400
        assert "point" in response.payload["error"]

    def test_out_of_space_point_maps_geometry_to_400(self):
        response = post(make_app(), "/v1/insert", {"point": [2.0, 2.0]})
        assert response.status == 400


class TestGet:
    def test_hit_carries_value_and_lsn(self):
        app, records = seeded_app()
        point, value = records[5]
        response = post(app, "/v1/get", {"point": point})
        assert response.status == 200
        assert response.payload == {
            "point": point,
            "value": value,
            "lsn": 1,
        }

    def test_miss_is_404_with_snapshot_lsn(self):
        app, _ = seeded_app()
        response = post(app, "/v1/get", {"point": [0.01, 0.01]})
        assert response.status == 404
        assert response.payload["kind"] == "KeyNotFoundError"
        assert response.payload["lsn"] == 1


class TestInsertDelete:
    def test_insert_is_201_and_bumps_lsn(self):
        app = make_app()
        response = post(
            app, "/v1/insert", {"point": [0.5, 0.5], "value": "v"}
        )
        assert response.status == 201
        assert response.payload == {"point": [0.5, 0.5], "lsn": 1}
        assert post(app, "/v1/get", {"point": [0.5, 0.5]}).payload[
            "value"
        ] == "v"

    def test_duplicate_insert_is_409(self):
        app = make_app()
        post(app, "/v1/insert", {"point": [0.5, 0.5], "value": 1})
        response = post(app, "/v1/insert", {"point": [0.5, 0.5], "value": 2})
        assert response.status == 409
        assert response.payload["kind"] == "DuplicateKeyError"

    def test_replace_insert_is_201(self):
        app = make_app()
        post(app, "/v1/insert", {"point": [0.5, 0.5], "value": 1})
        response = post(
            app,
            "/v1/insert",
            {"point": [0.5, 0.5], "value": 2, "replace": True},
        )
        assert response.status == 201
        assert post(app, "/v1/get", {"point": [0.5, 0.5]}).payload[
            "value"
        ] == 2

    @NOT_BOOLEAN
    def test_non_boolean_replace_is_400(self, flag):
        app = make_app()
        post(app, "/v1/insert", {"point": [0.5, 0.5], "value": 1})
        response = post(
            app,
            "/v1/insert",
            {"point": [0.5, 0.5], "value": 2, "replace": flag},
        )
        assert response.status == 400
        assert response.payload["error"] == not_boolean("field 'replace'", flag)
        assert post(app, "/v1/get", {"point": [0.5, 0.5]}).payload[
            "value"
        ] == 1

    def test_delete_returns_the_removed_value(self):
        app, records = seeded_app()
        point, value = records[0]
        response = post(app, "/v1/delete", {"point": point})
        assert response.status == 200
        assert response.payload == {"point": point, "value": value, "lsn": 2}
        assert post(app, "/v1/get", {"point": point}).status == 404

    def test_delete_of_missing_point_is_404(self):
        response = post(make_app(), "/v1/delete", {"point": [0.5, 0.5]})
        assert response.status == 404


class TestRange:
    def test_payload_shape(self):
        app, records = seeded_app()
        response = post(
            app, "/v1/range", {"lows": [0.0, 0.0], "highs": [0.3, 0.3]}
        )
        assert response.status == 200
        payload = response.payload
        assert payload["count"] == len(payload["records"])
        assert payload["pages_visited"] >= 1
        assert payload["lsn"] == 1
        expected = {
            (tuple(p), v)
            for p, v in records
            if p[0] <= 0.3 and p[1] <= 0.3
        }
        got = {
            (tuple(r["point"]), r["value"]) for r in payload["records"]
        }
        assert got == expected

    def test_missing_bound_is_400(self):
        response = post(make_app(), "/v1/range", {"lows": [0.0, 0.0]})
        assert response.status == 400


class TestKnn:
    def test_payload_shape_and_ordering(self):
        app, _ = seeded_app()
        response = post(app, "/v1/knn", {"point": [1 / 8, 1 / 8], "k": 3})
        assert response.status == 200
        neighbours = response.payload["neighbours"]
        assert len(neighbours) == 3
        assert neighbours[0]["point"] == [1 / 8, 1 / 8]
        assert neighbours[0]["distance"] == 0.0
        distances = [n["distance"] for n in neighbours]
        assert distances == sorted(distances)
        assert response.payload["lsn"] == 1

    @pytest.mark.parametrize("k", [0, -1, 1.5, True, "three"])
    def test_bad_k_is_400(self, k):
        app, _ = seeded_app()
        response = post(app, "/v1/knn", {"point": [0.5, 0.5], "k": k})
        assert response.status == 400


class TestBatch:
    def test_success_is_one_publication(self):
        app = make_app()
        response = post(
            app,
            "/v1/batch",
            {
                "ops": [
                    {"op": "insert", "point": [0.25, 0.25], "value": 1},
                    {"op": "insert", "point": [0.75, 0.75], "value": 2},
                    {"op": "delete", "point": [0.25, 0.25]},
                ]
            },
        )
        assert response.status == 200
        assert response.payload == {"applied": 3, "lsn": 1}

    def test_abort_is_all_or_nothing(self):
        app = make_app()
        response = post(
            app,
            "/v1/batch",
            {
                "ops": [
                    {"op": "insert", "point": [0.25, 0.25], "value": 1},
                    {"op": "delete", "point": [0.75, 0.75]},
                ]
            },
        )
        # The 404 cause degrades to 400 and names the failing index.
        assert response.status == 400
        assert response.payload["kind"] == "BatchAbortedError"
        assert response.payload["index"] == 1
        assert response.payload["cause"] == "KeyNotFoundError"
        # Nothing from the batch is visible: op 0 never landed.
        assert post(app, "/v1/get", {"point": [0.25, 0.25]}).status == 404
        assert app.service.stats()["lsn"] == 0

    def test_abort_on_duplicate_keeps_409(self):
        app = make_app()
        post(app, "/v1/insert", {"point": [0.5, 0.5], "value": 1})
        response = post(
            app,
            "/v1/batch",
            {
                "ops": [
                    {"op": "insert", "point": [0.25, 0.25], "value": 1},
                    {"op": "insert", "point": [0.5, 0.5], "value": 2},
                ]
            },
        )
        assert response.status == 409
        assert response.payload["index"] == 1

    @NOT_BOOLEAN
    def test_non_boolean_replace_is_400(self, flag):
        app = make_app()
        post(app, "/v1/insert", {"point": [0.5, 0.5], "value": 1})
        response = post(
            app,
            "/v1/batch",
            {
                "ops": [
                    {"op": "insert", "point": [0.25, 0.25], "value": 1},
                    {
                        "op": "insert",
                        "point": [0.5, 0.5],
                        "value": 2,
                        "replace": flag,
                    },
                ]
            },
        )
        assert response.status == 400
        assert response.payload["error"] == not_boolean("ops[1].replace", flag)
        assert post(app, "/v1/get", {"point": [0.25, 0.25]}).status == 404
        assert app.service.stats()["lsn"] == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"ops": []},
            {"ops": ["insert"]},
            {"ops": [{"op": "upsert", "point": [0.5, 0.5]}]},
        ],
    )
    def test_malformed_ops_are_400(self, payload):
        response = post(make_app(), "/v1/batch", payload)
        assert response.status == 400


class TestBulk:
    def test_bulk_load_is_201(self):
        app = make_app()
        response = post(
            app,
            "/v1/bulk",
            {"records": [[[0.25, 0.25], "a"], [[0.75, 0.75], "b"]]},
        )
        assert response.status == 201
        assert response.payload == {"loaded": 2, "lsn": 1}

    @pytest.mark.parametrize(
        "payload",
        [{}, {"records": []}, {"records": [[[0.5, 0.5]]]}],
    )
    def test_malformed_records_are_400(self, payload):
        response = post(make_app(), "/v1/bulk", payload)
        assert response.status == 400

    @pytest.mark.parametrize(("replace", "status"), [(True, 201), (False, 409)])
    def test_replace_is_taken_as_given(self, replace, status):
        app = make_app()
        records = [[[0.25, 0.25], "a"], [[0.25, 0.25], "b"]]
        response = post(
            app, "/v1/bulk", {"records": records, "replace": replace}
        )
        assert response.status == status
        if replace:
            assert response.payload["loaded"] == 1
            assert post(app, "/v1/get", {"point": [0.25, 0.25]}).payload[
                "value"
            ] == "b"

    @NOT_BOOLEAN
    def test_non_boolean_replace_is_400(self, flag):
        app = make_app()
        records = [[[0.25, 0.25], "a"], [[0.25, 0.25], "b"]]
        response = post(app, "/v1/bulk", {"records": records, "replace": flag})
        assert response.status == 400
        assert response.payload["error"] == not_boolean("field 'replace'", flag)
        assert len(app.service.tree) == 0

    @pytest.mark.parametrize(
        ("good", "record", "message"),
        [
            (TWO, [[0.5, True], 1], r"records\[2\] point must be a non-empty array of numbers"),
            (TWO, [[0.5, "0.5"], 1], r"records\[2\] point must be a non-empty array of numbers"),
            (TWO, [[], 1], r"records\[2\] point must be a non-empty array of numbers"),
            (TWO, "0.5", r"records\[2\] must be a \[point, value\] pair"),
            (TWO, [[0.5, 0.5, 0.5], 1], r"records\[2\] point has 3 coordinates, the space has 2"),
            (GRID, [[0.5, 0.5, 0.5], 1], r"records\[1000\] point has 3 coordinates, the space has 2"),
        ],
        ids=["bool", "string", "empty", "not-a-pair", "wrong-dimension", "late"],
    )
    def test_bad_record_is_named_and_leaves_the_tree_empty(
        self, good, record, message
    ):
        app = make_app()
        response = post(app, "/v1/bulk", {"records": good + [record]})
        assert response.status == 400
        assert re.fullmatch(message, response.payload["error"])
        assert len(app.service.tree) == 0
        # The service poisons itself if a failed op touched a page.
        assert not app.service.poisoned
        # The rejected load left the tree loadable.
        response = post(app, "/v1/bulk", {"records": good})
        assert response.status == 201
        assert response.payload["loaded"] == len(good)

    def test_rejected_load_leaves_the_wal_as_it_was(self, tmp_path):
        tree = create_durable_tree(
            tmp_path, DataSpace.unit(2, resolution=8), data_capacity=4,
            fanout=4, sync="os",
        )
        app = ServingApp(TreeService(tree))
        wal = tmp_path / "wal.log"
        try:
            size, seq = wal.stat().st_size, app.service.stats()["wal_seq"]
            response = post(
                app, "/v1/bulk", {"records": GRID + [[[0.5, 0.5, 0.5], 1]]}
            )
            assert response.status == 400
            assert response.payload["error"].startswith("records[1000] ")
            assert wal.stat().st_size == size
            assert app.service.stats()["wal_seq"] == seq
            assert not app.service.poisoned
            response = post(app, "/v1/bulk", {"records": GRID})
            assert response.status == 201
            assert response.payload == {"loaded": 1000, "lsn": 1}
            assert wal.stat().st_size > size
        finally:
            tree.store.close(checkpoint=False)


class TestHealthStatsMetrics:
    def test_health_ok(self):
        app, records = seeded_app()
        response = app.handle("GET", "/health", None)
        assert response.status == 200
        assert response.payload["status"] == "ok"
        assert response.payload["records"] == len(records)
        assert response.payload["lsn"] == 1

    def test_health_poisoned_is_503(self, tmp_path):
        # Only a dead store poisons the writer: a WAL that crashes
        # mid-commit kills this durable one.
        tree = create_durable_tree(
            tmp_path, DataSpace.unit(2, resolution=8), data_capacity=4,
            fanout=4, sync="os",
            faults=FaultPlan(crash_after_appends=9, tail="torn"),
        )
        app = ServingApp(TreeService(tree))
        assert post(app, "/v1/insert", {"point": [0.5, 0.5], "value": 1}).status == 201

        # The crashing commit itself surfaces as a storage failure...
        statuses = [
            post(app, "/v1/insert", {"point": [i / 8, 0.25]}).status
            for i in range(4)
        ]
        assert 503 in statuses
        assert app.service.poisoned

        # ...and every write after it fails on the dead store: 503.
        response = post(app, "/v1/insert", {"point": [0.75, 0.75]})
        assert response.status == 503
        assert response.payload["kind"] == "StorageError"

        response = app.handle("GET", "/health", None)
        assert response.status == 503
        assert response.payload["status"] == "poisoned"
        # The last published version keeps serving.
        assert post(app, "/v1/get", {"point": [0.5, 0.5]}).status == 200

    def test_stats_shape(self):
        app, _ = seeded_app()
        response = app.handle("GET", "/stats", None)
        assert response.status == 200
        for key in ("lsn", "records", "height", "commits", "poisoned"):
            assert key in response.payload
        assert "batcher" not in response.payload  # no batcher attached

    def test_metrics_pass_the_prometheus_linter(self):
        app, records = seeded_app()
        post(app, "/v1/get", {"point": records[0][0]})
        post(app, "/v1/get", {"point": [0.01, 0.01]})
        post(app, "/v1/knn", {"point": [0.5, 0.5], "k": 2})
        post(app, "/v1/range", {"lows": [0.0, 0.0], "highs": [1.0, 1.0]})
        response = app.handle("GET", "/metrics", None)
        assert response.status == 200
        assert response.content_type == "text/plain; version=0.0.4"
        text = response.payload
        assert lint_prometheus(text) == []
        assert "serve_get_requests" in text.replace(".", "_")

    def test_per_endpoint_counters_track_requests_and_errors(self):
        app, records = seeded_app()
        post(app, "/v1/get", {"point": records[0][0]})
        post(app, "/v1/get", {"point": records[1][0]})
        post(app, "/v1/get", {"point": [0.01, 0.01]})  # 404: an error
        registry = app.registry.snapshot()
        assert registry["serve.get.requests"]["value"] == 3
        # A get miss is part of the contract, not an app error — the
        # errors counter stays untouched by 404s.
        assert registry["serve.get.errors"]["value"] == 0
        assert registry["serve.get.latency_us"]["count"] == 3
        # A real error (malformed point) does count.
        post(app, "/v1/get", {"point": []})
        assert app.registry.snapshot()["serve.get.errors"]["value"] == 1
