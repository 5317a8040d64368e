"""Deterministic tests of the write batcher's grouping and shutdown.

The service under the batcher is gated: its ``apply_ops`` blocks on a
``threading.Event`` until the test releases it.  Holding the first
group inside the service while more requests queue makes the grouping
exact — a group is whatever queued while the previous one committed —
so nothing here depends on timing.
"""

import threading

import pytest

from repro.concurrency import build_service, delete_op, insert_op
from repro.errors import DuplicateKeyError, KeyNotFoundError, ReproError
from repro.server.batch import _SHUTDOWN, WriteBatcher

TIMEOUT = 10


class GatedService:
    """Delegates to a real service once ``gate`` is set; records groups."""

    def __init__(self):
        self.inner, _ = build_service()
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self.groups = []

    def apply_ops(self, ops):
        self.entered.release()
        assert self.gate.wait(TIMEOUT), "test never released the gate"
        self.groups.append(list(ops))
        return self.inner.apply_ops(ops)


def point(i):
    return ((i % 16) / 16 + 1 / 32, (i // 16) / 16 + 1 / 32)


@pytest.fixture()
def gated():
    service = GatedService()
    batcher = WriteBatcher(service, max_batch=3)
    try:
        yield service, batcher
    finally:
        service.gate.set()
        batcher.close()


def hold_first_group(service, batcher):
    """Submit one write and wait until its group is blocked in the service."""
    future = batcher.submit([insert_op(point(0), 0)])
    assert service.entered.acquire(timeout=TIMEOUT)
    return future


class TestGrouping:
    def test_lone_submit_commits_as_a_group_of_one(self, gated):
        service, batcher = gated
        service.gate.set()
        outcomes, lsn = batcher.submit([insert_op(point(1), "v")]).result(
            TIMEOUT
        )
        assert outcomes == [(True, None)]
        assert lsn == 1
        assert service.groups == [[insert_op(point(1), "v")]]
        assert batcher.stats.to_dict()["max_batch_seen"] == 1

    def test_requests_queued_during_a_commit_form_the_next_group(self, gated):
        service, batcher = gated
        first = hold_first_group(service, batcher)
        queued = [batcher.submit([insert_op(point(i), i)]) for i in (1, 2)]
        service.gate.set()
        assert first.result(TIMEOUT)[1] == 1
        assert [f.result(TIMEOUT)[1] for f in queued] == [2, 2]
        assert [len(g) for g in service.groups] == [1, 2]
        assert batcher.stats.max_batch_seen == 2
        assert batcher.stats.batches == 2

    def test_backlog_splits_into_groups_of_at_most_max_batch(self, gated):
        service, batcher = gated
        first = hold_first_group(service, batcher)
        queued = [batcher.submit([insert_op(point(i), i)]) for i in range(1, 8)]
        service.gate.set()
        first.result(TIMEOUT)
        assert [f.result(TIMEOUT)[1] for f in queued] == [2, 2, 2, 3, 3, 3, 4]
        assert [len(g) for g in service.groups] == [1, 3, 3, 1]
        assert batcher.stats.max_batch_seen == 3
        assert batcher.stats.ops == 8

    def test_a_failing_op_fails_only_its_own_request(self, gated):
        service, batcher = gated
        first = hold_first_group(service, batcher)
        duplicate = batcher.submit([insert_op(point(0), "again")])
        fresh = batcher.submit([insert_op(point(1), "v")])
        missing = batcher.submit([delete_op(point(2))])
        service.gate.set()
        assert first.result(TIMEOUT)[0] == [(True, None)]
        (ok, exc), = duplicate.result(TIMEOUT)[0]
        assert not ok and isinstance(exc, DuplicateKeyError)
        assert fresh.result(TIMEOUT) == ([(True, None)], 2)
        (ok, exc), = missing.result(TIMEOUT)[0]
        assert not ok and isinstance(exc, KeyNotFoundError)
        assert [len(g) for g in service.groups] == [1, 3]
        assert service.inner.get(point(1)) == "v"


class _InstantService:
    def apply_ops(self, ops):
        return [(True, None)] * len(ops), 0


class TestClose:
    def test_submit_after_close_is_refused(self):
        batcher = WriteBatcher(_InstantService())
        batcher.close()
        batcher.close()
        with pytest.raises(ReproError, match="closed"):
            batcher.submit([insert_op(point(0))])

    def test_close_racing_a_submit_leaves_no_future_pending(self):
        """A submit caught between its closed-check and its enqueue.

        The request's enqueue is held open while ``close()`` runs; once
        both have returned, the request's future must be resolved (it
        landed ahead of the shutdown sentinel), never left pending.
        """
        batcher = WriteBatcher(_InstantService())
        queue = batcher._queue
        real_put = queue.put
        in_put, proceed, shutdown_queued = (threading.Event() for _ in range(3))

        def put(item, *args, **kwargs):
            if item is _SHUTDOWN:
                shutdown_queued.set()
            elif not in_put.is_set():
                in_put.set()
                proceed.wait(TIMEOUT)
            real_put(item, *args, **kwargs)

        queue.put = put
        futures = []
        submitter = threading.Thread(
            target=lambda: futures.append(batcher.submit([delete_op(point(0))]))
        )
        closer = threading.Thread(target=batcher.close)
        submitter.start()
        assert in_put.wait(TIMEOUT)
        closer.start()
        # Give an unguarded close() the chance to enqueue its sentinel
        # first; a guarded one blocks until the submit's enqueue is done.
        shutdown_queued.wait(0.2)
        proceed.set()
        for thread in (submitter, closer):
            thread.join(TIMEOUT)
            assert not thread.is_alive()
        assert len(futures) == 1
        assert futures[0].done()
        assert futures[0].result() == ([(True, None)], 0)
