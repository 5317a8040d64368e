"""Deterministic tests of the loop-side write batcher.

The serving loop submits every write it parses in one pass and then
drains the batcher once, so here a group is exactly the submits made
before one ``drain()`` — nothing depends on timing.  Each request's
callback records what it settled with.  The service under the batcher
records each ``apply_ops`` call (and the thread it ran on) before
delegating to a real service.
"""

import http.client
import json
import threading

import pytest

from repro.concurrency import delete_op, insert_op
from repro.errors import DuplicateKeyError, KeyNotFoundError, ReproError
from repro.server.app import Pending, ServingApp
from repro.server.batch import WriteBatcher
from repro.server.http import ServerHandle
from tests.concurrency.conftest import fail_inserts_of
from tests.concurrency.lockstep import build_service


class RecordingService:
    """Delegates to a real service; records every group and its thread."""

    def __init__(self):
        self.inner, _ = build_service()
        self.groups = []
        self.threads = []

    def apply_ops(self, ops):
        self.groups.append(list(ops))
        self.threads.append(threading.current_thread())
        return self.inner.apply_ops(ops)


def point(i):
    return ((i % 16) / 16 + 1 / 32, (i // 16) / 16 + 1 / 32)


@pytest.fixture()
def recorded():
    service = RecordingService()
    batcher = WriteBatcher(service, max_batch=3)
    try:
        yield service, batcher
    finally:
        batcher.close()


def submit_all(batcher, requests):
    """Submit each request's ops; return the list its outcomes land in
    (one slot per request, filled when the request settles)."""
    settled = [None] * len(requests)
    for i, ops in enumerate(requests):
        batcher.submit(ops, lambda outcome, i=i: settled.__setitem__(i, outcome))
    return settled


class TestGrouping:
    def test_lone_submit_commits_as_a_group_of_one(self, recorded):
        service, batcher = recorded
        op = insert_op(point(1), "v")
        settled = submit_all(batcher, [[op]])
        assert settled == [None]  # nothing commits before the drain
        batcher.drain()
        assert settled == [([(True, None)], 1)]
        assert service.groups == [[op]]
        # The caller's op object reaches the service unchanged.
        assert service.groups[0][0] is op
        assert batcher.stats.to_dict()["max_batch_seen"] == 1

    def test_submits_in_one_loop_iteration_share_one_commit(self, recorded):
        service, batcher = recorded
        first = submit_all(
            batcher, [[insert_op(point(i), i)] for i in (0, 1)]
        )
        batcher.drain()
        # A submit after the drain starts the next group.
        second = submit_all(batcher, [[insert_op(point(2), 2)]])
        batcher.drain()
        assert [lsn for _, lsn in first + second] == [1, 1, 2]
        assert [len(g) for g in service.groups] == [2, 1]
        assert batcher.stats.batches == 2
        assert batcher.stats.max_batch_seen == 2
        # One publication per group: the service's LSN is the group count.
        assert service.inner.stats()["lsn"] == 2

    def test_backlog_splits_into_groups_of_at_most_max_batch(self, recorded):
        service, batcher = recorded
        results = submit_all(
            batcher, [[insert_op(point(i), i)] for i in range(7)]
        )
        batcher.drain()
        assert [lsn for _, lsn in results] == [1, 1, 1, 2, 2, 2, 3]
        assert [len(g) for g in service.groups] == [3, 3, 1]
        assert batcher.stats.max_batch_seen == 3
        assert batcher.stats.ops == 7

    def test_a_failing_op_fails_only_its_own_request(self, recorded):
        service, batcher = recorded
        submit_all(batcher, [[insert_op(point(0), 0)]])
        batcher.drain()
        results = submit_all(
            batcher,
            [
                [insert_op(point(0), "again")],
                [insert_op(point(1), "v")],
                [delete_op(point(2))],
            ],
        )
        batcher.drain()
        duplicate, fresh, missing = results
        (ok, exc), = duplicate[0]
        assert not ok and isinstance(exc, DuplicateKeyError)
        assert fresh == ([(True, None)], 2)
        (ok, exc), = missing[0]
        assert not ok and isinstance(exc, KeyNotFoundError)
        assert [len(g) for g in service.groups] == [1, 3]
        assert service.inner.get(point(1)) == "v"

    def test_a_failing_op_leaves_the_group_to_commit(self, monkeypatch):
        service, _ = build_service()
        batcher = WriteBatcher(service)
        app = ServingApp(service, batcher=batcher)
        service.insert(point(0), 0)
        fail_inserts_of(service.tree, monkeypatch, "boom")
        responses = [None] * 3
        try:
            replies = [
                app.handle("POST", path, json.dumps(body).encode())
                for path, body in (
                    ("/v1/insert", {"point": point(1), "value": "v"}),
                    ("/v1/insert", {"point": point(2), "value": "boom"}),
                    ("/v1/delete", {"point": point(0)}),
                )
            ]
            for i, reply in enumerate(replies):
                assert isinstance(reply, Pending)
                reply.callback = lambda r, i=i: responses.__setitem__(i, r)
            batcher.drain()
        finally:
            batcher.close()
        inserted, failed, deleted = responses
        assert (inserted.status, deleted.status) == (201, 200)
        assert failed.status == 500
        assert failed.payload["kind"] == "RuntimeError"
        assert batcher.stats.batches == 1
        assert service.lsn == 2
        assert dict(service.snapshot().items()) == {point(1): "v"}

    def test_a_service_failure_rejects_its_group_only(self, recorded):
        service, batcher = recorded
        real_apply = service.apply_ops

        def fail_first_group(ops):
            if not service.groups:
                service.groups.append(list(ops))
                raise ReproError("writer down")
            return real_apply(ops)

        service.apply_ops = fail_first_group
        results = submit_all(
            batcher, [[insert_op(point(i), i)] for i in range(4)]
        )
        batcher.drain()
        assert all(isinstance(r, ReproError) for r in results[:3])
        assert results[3] == ([(True, None)], 1)
        assert batcher.stats.batches == 1


class _InstantService:
    def __init__(self):
        self.calls = 0

    def apply_ops(self, ops):
        self.calls += 1
        return [(True, None)] * len(ops), 0


class TestClose:
    def test_submit_after_close_is_refused(self):
        batcher = WriteBatcher(_InstantService())
        batcher.close()
        batcher.close()
        with pytest.raises(ReproError, match="closed"):
            batcher.submit([insert_op(point(0))], lambda outcome: None)

    def test_close_fails_pending_requests(self):
        service = _InstantService()
        batcher = WriteBatcher(service)
        results = submit_all(
            batcher, [[delete_op(point(i))] for i in range(2)]
        )
        batcher.close()
        assert all(
            isinstance(r, ReproError) and "closed" in str(r) for r in results
        )
        assert service.calls == 0

    def test_close_is_safe_after_the_loop_stops(self):
        """A drain that never ran: the loop stopped with a write queued."""
        service = _InstantService()
        batcher = WriteBatcher(service)
        settled = []
        batcher.submit([delete_op(point(0))], settled.append)
        batcher.close()
        # A drain after the close has nothing left to apply.
        batcher.drain()
        assert len(settled) == 1 and isinstance(settled[0], ReproError)
        assert service.calls == 0


class TestServedWritesStayOnTheLoop:
    def test_served_write_applies_on_the_loop_thread(self):
        service = RecordingService()
        batcher = WriteBatcher(service)
        before = {t.name for t in threading.enumerate()}
        with ServerHandle(ServingApp(service.inner, batcher=batcher)) as handle:
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            try:
                for verb in ("insert", "delete"):
                    conn.request(
                        "POST",
                        f"/v1/{verb}",
                        body=json.dumps({"point": [0.5, 0.5], "value": 1}),
                    )
                    response = conn.getresponse()
                    assert response.status in (200, 201)
                    response.read()
            finally:
                conn.close()
            during = {t.name for t in threading.enumerate()}
        batcher.close()
        assert [t.name for t in service.threads] == ["repro-serve"] * 2
        # Only the loop's own host thread: no writer thread, no executor.
        assert during - before <= {"repro-serve"}
        assert not any(
            name.startswith(("repro-write-batcher", "asyncio_"))
            for name in during
        )
