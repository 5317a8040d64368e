"""End-to-end tests over a real socket: ServerHandle + WriteBatcher.

The contract lives in :mod:`tests.server.test_app_contract`; this file
only pins what the transport adds — HTTP framing, keep-alive, the
malformed-request guard, and group-commit coalescing of concurrent
write requests through the batcher.
"""

import http.client
import json
import logging
import socket
import threading

import pytest

from repro import DataSpace
from repro.concurrency import TreeService
from repro.server.app import ServingApp
from repro.server.batch import WriteBatcher
from repro.server.http import ServerHandle
from repro.storage.durable.recovery import (
    create_durable_tree,
    open_durable_tree,
)
from tests.concurrency.lockstep import build_service


@pytest.fixture()
def served():
    """A running server (with batcher) plus its app, torn down cleanly."""
    service, _ = build_service()
    batcher = WriteBatcher(service, max_batch=32)
    app = ServingApp(service, batcher=batcher)
    handle = ServerHandle(app).start()
    try:
        yield handle, app
    finally:
        handle.stop()
        batcher.close()


def request(handle, method, path, payload=None):
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHttpRoundTrips:
    def test_insert_get_delete_over_the_wire(self, served):
        handle, _ = served
        status, payload = request(
            handle, "POST", "/v1/insert", {"point": [0.5, 0.5], "value": "v"}
        )
        assert (status, payload["lsn"]) == (201, 1)
        status, payload = request(
            handle, "POST", "/v1/get", {"point": [0.5, 0.5]}
        )
        assert (status, payload["value"]) == (200, "v")
        status, _ = request(handle, "POST", "/v1/delete", {"point": [0.5, 0.5]})
        assert status == 200
        status, _ = request(handle, "POST", "/v1/get", {"point": [0.5, 0.5]})
        assert status == 404

    def test_health_and_metrics_endpoints(self, served):
        handle, _ = served
        status, payload = request(handle, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        conn = http.client.HTTPConnection(
            handle.host, handle.port, timeout=10
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain"
            )
            assert b"serve_health_requests" in response.read().replace(
                b".", b"_"
            )
        finally:
            conn.close()

    def test_keep_alive_reuses_one_connection(self, served):
        handle, _ = served
        conn = http.client.HTTPConnection(
            handle.host, handle.port, timeout=10
        )
        try:
            for i in range(5):
                conn.request(
                    "POST",
                    "/v1/insert",
                    body=json.dumps(
                        {"point": [i / 8 + 1 / 16, 0.5], "value": i}
                    ),
                )
                response = conn.getresponse()
                assert response.status == 201
                assert (
                    response.getheader("Connection") == "keep-alive"
                )
                response.read()
        finally:
            conn.close()
        status, payload = request(handle, "GET", "/stats")
        assert (status, payload["records"]) == (200, 5)

    def test_connection_close_is_honoured(self, served):
        handle, _ = served
        conn = http.client.HTTPConnection(
            handle.host, handle.port, timeout=10
        )
        try:
            conn.request(
                "GET", "/health", headers={"Connection": "close"}
            )
            response = conn.getresponse()
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            conn.close()


class TestShutdown:
    def test_stop_with_idle_keep_alive_connections_logs_no_error(
        self, caplog
    ):
        service, _ = build_service()
        handle = ServerHandle(ServingApp(service)).start()
        conns = []
        try:
            for _ in range(3):
                conn = http.client.HTTPConnection(
                    handle.host, handle.port, timeout=10
                )
                conn.request("GET", "/health")
                response = conn.getresponse()
                assert response.getheader("Connection") == "keep-alive"
                response.read()
                conns.append(conn)
            # Three connections now sit idle in the server's readline().
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                handle.stop()
        finally:
            handle.stop()
            for conn in conns:
                conn.close()
        assert not handle._thread.is_alive()
        errors = [
            record
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert errors == []


class TestMalformedRequests:
    def test_garbage_request_line_gets_400(self, served):
        handle, _ = served
        with socket.create_connection(
            (handle.host, handle.port), timeout=10
        ) as sock:
            sock.sendall(b"NOT A VALID REQUEST\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_is_rejected(self, served):
        handle, _ = served
        with socket.create_connection(
            (handle.host, handle.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/insert HTTP/1.1\r\n"
                b"Content-Length: 999999999999\r\n\r\n"
            )
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")


class TestBatcherCoalescing:
    def test_concurrent_writes_coalesce_into_group_commits(self, served):
        handle, app = served
        n_threads, per_thread = 8, 10
        errors = []

        def worker(tid):
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            try:
                for i in range(per_thread):
                    point = [
                        tid / 16 + 1 / 32,
                        i / 16 + 1 / 32,
                    ]
                    conn.request(
                        "POST",
                        "/v1/insert",
                        body=json.dumps({"point": point, "value": tid}),
                    )
                    response = conn.getresponse()
                    if response.status != 201:
                        errors.append((tid, i, response.status))
                    response.read()
            finally:
                conn.close()

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        stats = app.batcher.stats
        assert stats.requests == n_threads * per_thread
        assert stats.ops == n_threads * per_thread
        # Coalescing happened: fewer publications than requests (the
        # exact grouping is timing-dependent; any grouping at all means
        # at least one multi-request batch landed).
        assert stats.batches <= stats.requests
        assert stats.max_batch_seen >= 1
        # Every write is visible and the final LSN equals batch count.
        status, payload = request(handle, "GET", "/stats")
        assert payload["records"] == n_threads * per_thread
        assert payload["lsn"] == stats.batches
        # /stats surfaces the batcher block when one is attached.
        assert payload["batcher"]["requests"] == stats.requests

    def test_batch_endpoint_bypasses_the_batcher(self, served):
        handle, app = served
        before = app.batcher.stats.requests
        status, payload = request(
            handle,
            "POST",
            "/v1/batch",
            {
                "ops": [
                    {"op": "insert", "point": [0.25, 0.25], "value": 1},
                    {"op": "insert", "point": [0.75, 0.75], "value": 2},
                ]
            },
        )
        assert (status, payload["applied"]) == (200, 2)
        assert app.batcher.stats.requests == before


class TestDurableServedWrites:
    def test_acknowledged_writes_survive_a_reopen_with_sync_commit(
        self, tmp_path
    ):
        """The loop fsyncs each commit; recovery replays every ack."""
        space = DataSpace.unit(2, resolution=16)
        tree = create_durable_tree(
            tmp_path, space, data_capacity=4, fanout=4, sync="commit"
        )
        store = tree.store
        service = TreeService(tree)
        batcher = WriteBatcher(service)
        points = [
            [i / 16 + 1 / 32, j / 16 + 1 / 32]
            for i in range(4)
            for j in range(5)
        ]
        try:
            with ServerHandle(ServingApp(service, batcher=batcher)) as handle:
                for i, p in enumerate(points):
                    status, _ = request(
                        handle, "POST", "/v1/insert", {"point": p, "value": i}
                    )
                    assert status == 201
                for p in points[::3]:
                    status, _ = request(
                        handle, "POST", "/v1/delete", {"point": p}
                    )
                    assert status == 200
                for i, p in enumerate(points):
                    status, _ = request(
                        handle, "POST", "/v1/get", {"point": p}
                    )
                    assert status == (404 if i % 3 == 0 else 200)
            assert store.wal_stats.syncs >= len(points)
        finally:
            batcher.close()
            store.close(checkpoint=False)
        recovered, report = open_durable_tree(tmp_path, sync="os")
        try:
            expected = {
                tuple(p): i for i, p in enumerate(points) if i % 3 != 0
            }
            assert dict(recovered.items()) == expected
            assert report.op_commits.count("delete") == len(points[::3])
        finally:
            recovered.store.close(checkpoint=False)
