"""Deterministic tests of the loop-side write batcher.

The batcher commits on the event loop: every ``submit`` made in one
loop iteration joins one group, drained by a single ``call_soon``
callback.  Submitting from plain synchronous code inside a coroutine
therefore makes the grouping exact — nothing here depends on timing.
The service under the batcher records each ``apply_ops`` call (and the
thread it ran on) before delegating to a real service.
"""

import asyncio
import http.client
import json
import threading

import pytest

from repro.concurrency import delete_op, insert_op
from repro.errors import DuplicateKeyError, KeyNotFoundError, ReproError
from repro.server.app import ServingApp
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


def settle(futures):
    """Await every future, returning results and exceptions alike."""
    return asyncio.gather(*futures, return_exceptions=True)


class TestGrouping:
    def test_lone_submit_commits_as_a_group_of_one(self, recorded):
        service, batcher = recorded
        op = insert_op(point(1), "v")

        async def scenario():
            return await batcher.submit([op])

        assert asyncio.run(scenario()) == ([(True, None)], 1)
        assert service.groups == [[op]]
        # The caller's op object reaches the service unchanged.
        assert service.groups[0][0] is op
        assert batcher.stats.to_dict()["max_batch_seen"] == 1

    def test_submits_in_one_loop_iteration_share_one_commit(self, recorded):
        service, batcher = recorded

        async def scenario():
            first = [batcher.submit([insert_op(point(i), i)]) for i in (0, 1)]
            results = await settle(first)
            # A submit in a later iteration starts the next group.
            results.append(await batcher.submit([insert_op(point(2), 2)]))
            return results

        results = asyncio.run(scenario())
        assert [lsn for _, lsn in results] == [1, 1, 2]
        assert [len(g) for g in service.groups] == [2, 1]
        assert batcher.stats.batches == 2
        assert batcher.stats.max_batch_seen == 2
        # One publication per group: the service's LSN is the group count.
        assert service.inner.stats()["lsn"] == 2

    def test_backlog_splits_into_groups_of_at_most_max_batch(self, recorded):
        service, batcher = recorded

        async def scenario():
            return await settle(
                [batcher.submit([insert_op(point(i), i)]) for i in range(7)]
            )

        results = asyncio.run(scenario())
        assert [lsn for _, lsn in results] == [1, 1, 1, 2, 2, 2, 3]
        assert [len(g) for g in service.groups] == [3, 3, 1]
        assert batcher.stats.max_batch_seen == 3
        assert batcher.stats.ops == 7

    def test_a_failing_op_fails_only_its_own_request(self, recorded):
        service, batcher = recorded

        async def scenario():
            await batcher.submit([insert_op(point(0), 0)])
            return await settle(
                [
                    batcher.submit([insert_op(point(0), "again")]),
                    batcher.submit([insert_op(point(1), "v")]),
                    batcher.submit([delete_op(point(2))]),
                ]
            )

        duplicate, fresh, missing = asyncio.run(scenario())
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

        async def scenario():
            replies = [
                app.handle("POST", path, json.dumps(body).encode())
                for path, body in (
                    ("/v1/insert", {"point": point(1), "value": "v"}),
                    ("/v1/insert", {"point": point(2), "value": "boom"}),
                    ("/v1/delete", {"point": point(0)}),
                )
            ]
            return await asyncio.gather(*replies)

        try:
            inserted, failed, deleted = asyncio.run(scenario())
        finally:
            batcher.close()
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

        async def scenario():
            return await settle(
                [batcher.submit([insert_op(point(i), i)]) for i in range(4)]
            )

        results = asyncio.run(scenario())
        assert all(isinstance(r, ReproError) for r in results[:3])
        assert results[3] == ([(True, None)], 1)
        assert batcher.stats.batches == 1

    def test_a_cancelled_request_does_not_break_the_drain(self, recorded):
        service, batcher = recorded

        async def scenario():
            futures = [
                batcher.submit([insert_op(point(i), i)]) for i in range(3)
            ]
            futures[1].cancel()
            return await settle(futures)

        first, cancelled, third = asyncio.run(scenario())
        assert isinstance(cancelled, asyncio.CancelledError)
        assert first == third == ([(True, None)], 1)
        # The cancelled request was never applied.
        assert [len(g) for g in service.groups] == [2]
        with pytest.raises(KeyNotFoundError):
            service.inner.get(point(1))


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
            batcher.submit([insert_op(point(0))])

    def test_close_fails_pending_requests(self):
        service = _InstantService()
        batcher = WriteBatcher(service)

        async def scenario():
            futures = [
                batcher.submit([delete_op(point(i))]) for i in range(2)
            ]
            batcher.close()
            return await settle(futures)

        results = asyncio.run(scenario())
        assert all(
            isinstance(r, ReproError) and "closed" in str(r) for r in results
        )
        assert service.calls == 0

    def test_close_is_safe_after_the_loop_stops(self):
        """A drain that never ran: the loop stopped with a write queued."""
        service = _InstantService()
        batcher = WriteBatcher(service)
        loop = asyncio.new_event_loop()

        async def submit_then_stop():
            future = batcher.submit([delete_op(point(0))])
            asyncio.get_running_loop().stop()
            return future

        try:
            future = loop.run_until_complete(submit_then_stop())
            assert not future.done()
            batcher.close()
            assert isinstance(future.exception(), ReproError)
        finally:
            loop.close()
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
