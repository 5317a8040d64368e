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
import time

import pytest

from repro import DataSpace
from repro.concurrency import TreeService
from repro.server.app import ServingApp
from repro.server.batch import WriteBatcher
from repro.server.http import MAX_BODY_BYTES, MAX_HEADER_BYTES, ServerHandle
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

    def test_bare_lf_request_gets_400_instead_of_a_hang(self, served):
        handle, _ = served
        client = RawClient(handle)
        try:
            client.sock.sendall(b"GET /health HTTP/1.1\nHost: t\n\n")
            status, headers, _ = client.response()
            assert (status, headers["connection"]) == (400, "close")
        finally:
            client.close()

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


def raw_request(method, path, payload=None, headers=b""):
    """One request's bytes, for pipelining over a raw socket."""
    body = b"" if payload is None else json.dumps(payload).encode()
    return (
        b"%s %s HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n%s"
        % (method.encode(), path.encode(), headers, len(body), body)
    )


class RawClient:
    """A socket that sends raw bytes and reads responses one by one."""

    def __init__(self, handle, rcvbuf=None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(10)
        self.sock.connect((handle.host, handle.port))
        self.buf = b""

    def close(self):
        self.sock.close()

    def _fill(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("closed by the server")
        self.buf += chunk

    def response(self):
        """``(status, headers, body)`` of the next response."""
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _, self.buf = self.buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return int(lines[0].split()[1]), headers, body

    def at_eof(self):
        """True once the server has closed the connection."""
        try:
            return not self.buf and self.sock.recv(1) == b""
        except ConnectionResetError:
            return True


class GatedService:
    """Delegates to a real service, but each ``apply_ops`` waits for
    :attr:`release` once it has set :attr:`entered`: the loop holds the
    group's writes parked until the test lets the commit finish."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def apply_ops(self, ops):
        self.entered.set()
        assert self.release.wait(10)
        return self.inner.apply_ops(ops)


@pytest.fixture()
def gated():
    """A running server whose batcher commits through a gate."""
    service, _ = build_service()
    gate = GatedService(service)
    batcher = WriteBatcher(gate)
    handle = ServerHandle(ServingApp(service, batcher=batcher)).start()
    try:
        yield handle, service, gate
    finally:
        gate.release.set()
        handle.stop()
        batcher.close()


class TestTransport:
    def test_pipelined_gets_and_write_are_answered_in_order(self, served):
        handle, app = served
        present, absent = [0.25, 0.25], [0.75, 0.75]
        request(handle, "POST", "/v1/insert", {"point": present, "value": 1})
        client = RawClient(handle)
        try:
            client.sock.sendall(
                raw_request("POST", "/v1/get", {"point": present})
                + raw_request("POST", "/v1/get", {"point": absent})
                + raw_request(
                    "POST", "/v1/insert", {"point": absent, "value": 2}
                )
                + raw_request("POST", "/v1/get", {"point": absent})
            )
            replies = [client.response() for _ in range(4)]
        finally:
            client.close()
        statuses = [status for status, _, _ in replies]
        # The miss is answered before the insert that follows it, and
        # the get after the insert sees it.
        assert statuses == [200, 404, 201, 200]
        payloads = [json.loads(body) for _, _, body in replies]
        assert payloads[0]["value"] == 1
        assert payloads[3]["value"] == 2
        assert payloads[2]["lsn"] == payloads[3]["lsn"] == 2
        assert all(h["connection"] == "keep-alive" for _, h, _ in replies)

    def test_header_block_over_the_cap_gets_400_and_close(self, served):
        handle, _ = served
        client = RawClient(handle)
        try:
            client.sock.sendall(
                b"GET /health HTTP/1.1\r\nX-Fill: "
                + b"a" * (MAX_HEADER_BYTES + 1)
            )
            status, headers, _ = client.response()
            assert (status, headers["connection"]) == (400, "close")
            assert client.at_eof()
        finally:
            client.close()

    def test_body_over_the_cap_gets_400_and_close(self, served):
        handle, app = served
        client = RawClient(handle)
        try:
            client.sock.sendall(
                b"POST /v1/insert HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (MAX_BODY_BYTES + 1)
            )
            status, headers, _ = client.response()
            assert (status, headers["connection"]) == (400, "close")
            assert client.at_eof()
        finally:
            client.close()
        assert app.batcher.stats.requests == 0

    def test_a_client_that_does_not_read_stalls_only_itself(self):
        """Answers a slow reader's socket does not take wait for it;
        the loop keeps serving everyone else meanwhile."""
        service, _ = build_service(
            space=DataSpace.unit(2, resolution=16),
            data_capacity=32,
            fanout=16,
        )
        points = [
            (i / 64 + 1 / 128, j / 64 + 1 / 128)
            for i in range(64)
            for j in range(64)
        ]
        service.bulk_load([(p, i) for i, p in enumerate(points)])
        everything = {"lows": [0.0, 0.0], "highs": [1.0, 1.0]}
        n_ranges = 60
        with ServerHandle(ServingApp(service)) as handle:
            stalled = RawClient(handle, rcvbuf=4096)
            try:
                stalled.sock.sendall(
                    raw_request("POST", "/v1/range", everything) * n_ranges
                )
                # Far more than the loopback socket buffers hold, so the
                # server's sends to this client stall.
                first = stalled.response()
                assert len(first[2]) * n_ranges > 8 * 1024 * 1024
                for i in range(20):
                    status, payload = request(handle, "GET", "/health")
                    assert (status, payload["records"]) == (200, len(points))
                # The stalled client still gets every answer, in order.
                for _ in range(n_ranges - 1):
                    status, _, body = stalled.response()
                    assert status == 200
                    assert json.loads(body)["count"] == len(points)
            finally:
                stalled.close()

    def test_a_write_whose_client_left_is_still_applied(self, gated):
        handle, service, gate = gated
        point = [0.5, 0.5]
        client = RawClient(handle)
        client.sock.sendall(
            raw_request("POST", "/v1/insert", {"point": point, "value": "v"})
        )
        assert gate.entered.wait(10)
        client.close()  # gone while its write is parked
        gate.release.set()
        status, payload = request(handle, "POST", "/v1/get", {"point": point})
        assert (status, payload["value"]) == (200, "v")
        assert service.lsn == 1

    def test_shutdown_with_idle_and_parked_connections(self, gated):
        handle, service, gate = gated
        idle = RawClient(handle)
        writer = RawClient(handle)
        first, second = [0.25, 0.25], [0.75, 0.75]
        try:
            idle.sock.sendall(raw_request("GET", "/health"))
            assert idle.response()[0] == 200
            writer.sock.sendall(
                raw_request("POST", "/v1/insert", {"point": first})
                + raw_request("POST", "/v1/insert", {"point": second})
            )
            # The first write's commit holds the loop; stop it there.
            assert gate.entered.wait(10)
            stopping = threading.Thread(target=handle.stop)
            stopping.start()
            while not handle._stopping:
                time.sleep(0.001)
            gate.release.set()
            stopping.join(15)
            assert not handle._thread.is_alive()
            # Both writes committed and were answered (the second one,
            # parsed after the first was answered, by the loop's last
            # drain) before it closed every connection and the listener.
            assert [writer.response()[0] for _ in "ab"] == [201, 201]
            assert writer.at_eof()
            assert idle.at_eof()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection((handle.host, handle.port), timeout=10)
        finally:
            idle.close()
            writer.close()
        assert dict(service.snapshot().items()) == {
            tuple(first): None,
            tuple(second): None,
        }
