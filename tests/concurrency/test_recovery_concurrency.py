"""Crash-under-concurrency cells: writer dies, readers live, recovery holds.

Four new cells extending the crash matrix (``tests/storage/
test_crash_matrix.py``) with concurrent readers: a ``TreeService``
fronts a WAL-backed durable tree, reader threads continuously pin
snapshots, and an injected :class:`FaultPlan` kills the writer mid-op,
mid-batch, or mid-checkpoint.  Each cell then asserts all three
contracts at once:

- **readers finish consistently** — every observation taken before,
  during and after the crash equals the published version at its LSN,
  and pinned snapshots survive the crash untouched;
- **the writer poisons, not corrupts** — further writes raise
  ``StorageError``; the last published version keeps serving;
- **recovery + doctor pass** — reopening the directory yields a tree
  equal to some prefix of the driven op history (an all-or-nothing
  batch is one WAL transaction, so a crash inside one recovers none or
  all of it: durability and snapshot isolation draw the same atomicity
  boundary), and the recovered tree passes the structural checker and
  the guarantee doctor.
"""

import threading

import pytest

from repro.concurrency import TreeService
from repro.core.tree import BVTree
from repro.errors import SimulatedCrashError, StorageError
from repro.obs.report import run_doctor
from repro.storage.durable.recovery import (
    create_durable_tree,
    open_durable_tree,
)
from repro.storage.faults import FaultPlan

from tests.concurrency.conftest import distinct_points, make_space

CAPACITY = 4
FANOUT = 4


def _build(tmp_path, plan, sync="os"):
    space = make_space()
    tree = create_durable_tree(
        tmp_path,
        space,
        data_capacity=CAPACITY,
        fanout=FANOUT,
        faults=plan,
        sync=sync,
    )
    return TreeService(tree), space


def _start_readers(service, stop, observations, failures, n=3):
    def reader():
        try:
            while not stop.is_set():
                snapshot = service.snapshot()
                observations.append(
                    (snapshot.lsn, frozenset(snapshot.items()))
                )
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            failures.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(n)]
    for thread in threads:
        thread.start()
    return threads


def _check_readers(observations, published, failures):
    assert not failures, failures[0]
    assert observations, "readers never pinned a snapshot"
    by_lsn = dict(published)
    for lsn, records in observations:
        assert lsn in by_lsn, f"observed unpublished lsn {lsn}"
        assert records == by_lsn[lsn], f"observation at lsn {lsn} diverged"


def _expected_prefixes(fine_ops):
    """Record-set after each prefix of the fine-grained op history."""
    state: dict[tuple, object] = {}
    prefixes = [frozenset(state.items())]
    for verb, point, value in fine_ops:
        if verb == "insert":
            state[tuple(point)] = value
        else:
            state.pop(tuple(point), None)
        prefixes.append(frozenset(state.items()))
    return prefixes


def _assert_recovers_to_a_prefix(tmp_path, fine_ops):
    recovered, report = open_durable_tree(tmp_path)
    got = frozenset((tuple(p), v) for p, v in recovered.items())
    assert got in set(_expected_prefixes(fine_ops)), (
        "recovered state is not a prefix of the driven op history"
    )
    recovered.check(check_occupancy=False, check_justification=False)
    doctor = run_doctor(recovered, workload="recovered")
    assert doctor.exit_code == 0, doctor.health.to_dict()
    recovered.store.close()
    return got, report


class TestCrashCellsWithReaders:
    def test_torn_tail_mid_insert_stream(self, tmp_path):
        """Cell 1: the WAL tears mid-stream while readers pin."""
        service, space = _build(
            tmp_path,
            FaultPlan(
                crash_after_appends=90, tail="torn", torn_fraction=0.5
            ),
        )
        points = distinct_points(80, space, seed=31)
        published = [(0, frozenset())]
        fine_ops = []
        stop = threading.Event()
        observations, failures = [], []
        readers = _start_readers(service, stop, observations, failures)
        pinned_before_crash = None
        try:
            for i, point in enumerate(points):
                try:
                    lsn = service.insert(point, i)
                except SimulatedCrashError:
                    break
                fine_ops.append(("insert", point, i))
                published.append(
                    (lsn, frozenset(service.snapshot().items()))
                )
                if i == 20:
                    pinned_before_crash = service.snapshot()
            else:
                pytest.fail("fault plan never fired")
        finally:
            stop.set()
            for thread in readers:
                thread.join()

        assert service.poisoned
        with pytest.raises(StorageError):
            service.insert((0.99, 0.99), "after-crash")
        # The pinned snapshot and the final published version survive.
        assert pinned_before_crash is not None
        assert dict(pinned_before_crash.items()) == dict(
            list(published[21][1])
        )
        assert (
            frozenset(service.snapshot().items()) == published[-1][1]
        )
        _check_readers(observations, published, failures)
        _assert_recovers_to_a_prefix(tmp_path, fine_ops)

    def test_crash_inside_all_or_nothing_batch(self, tmp_path):
        """Cell 2: the process dies *inside* apply_batch.  A batch is
        one WAL transaction, so recovery holds none or all of it: the
        last published version, or that version plus the whole batch."""
        service, space = _build(
            tmp_path, FaultPlan(crash_after_appends=70, tail="keep")
        )
        points = distinct_points(60, space, seed=32)
        published = [(0, frozenset())]
        stop = threading.Event()
        observations, failures = [], []
        readers = _start_readers(service, stop, observations, failures)
        crashed_batch = None
        try:
            for start in range(0, len(points), 5):
                chunk = points[start : start + 5]
                batch = [
                    ("insert", p, start + j, False)
                    for j, p in enumerate(chunk)
                ]
                try:
                    lsn = service.apply_batch(batch)
                except SimulatedCrashError:
                    crashed_batch = {
                        (tuple(p), start + j) for j, p in enumerate(chunk)
                    }
                    break
                published.append(
                    (lsn, frozenset(service.snapshot().items()))
                )
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert crashed_batch is not None, "fault plan never fired"
        assert service.poisoned
        # No torn batch was ever published to readers.
        assert frozenset(service.snapshot().items()) == published[-1][1]
        _check_readers(observations, published, failures)
        recovered, _ = open_durable_tree(tmp_path)
        got = frozenset((tuple(p), v) for p, v in recovered.items())
        assert got in {published[-1][1], published[-1][1] | crashed_batch}
        recovered.check(check_occupancy=False, check_justification=False)
        doctor = run_doctor(recovered, workload="recovered")
        assert doctor.exit_code == 0, doctor.health.to_dict()
        recovered.store.close()

    def test_crash_inside_checkpoint_with_pinned_readers(self, tmp_path):
        """Cell 3: checkpoint dies mid-write; the old image + WAL replay
        still recover everything that committed."""
        service, space = _build(
            tmp_path, FaultPlan(crash_in_checkpoint="mid_write")
        )
        points = distinct_points(40, space, seed=33)
        fine_ops = []
        published = [(0, frozenset())]
        stop = threading.Event()
        observations, failures = [], []
        readers = _start_readers(service, stop, observations, failures)
        try:
            for i, point in enumerate(points):
                lsn = service.insert(point, i)
                fine_ops.append(("insert", point, i))
                published.append(
                    (lsn, frozenset(service.snapshot().items()))
                )
            pinned = service.snapshot()
            with pytest.raises(SimulatedCrashError):
                service.checkpoint()
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert service.poisoned
        # Every driven op committed before the checkpoint crash.
        assert dict(pinned.items()) == {
            tuple(p): i for i, p in enumerate(points)
        }
        _check_readers(observations, published, failures)
        got, _ = _assert_recovers_to_a_prefix(tmp_path, fine_ops)
        # Every driven op committed; the checkpoint crash loses nothing.
        assert got == _expected_prefixes(fine_ops)[-1]

    def test_unsynced_tail_dropped_under_churn(self, tmp_path):
        """Cell 4: power-cut model — the OS drops the WAL tail beyond
        the last fsync, under a mixed insert/delete stream.  With
        sync=commit every acknowledged op was fsynced, so recovery must
        land exactly on the acknowledged prefix (not merely some
        prefix)."""
        service, space = _build(
            tmp_path,
            FaultPlan(crash_after_appends=110, tail="drop_unsynced"),
            sync="commit",
        )
        points = distinct_points(70, space, seed=34)
        fine_ops = []
        published = [(0, frozenset())]
        stop = threading.Event()
        observations, failures = [], []
        readers = _start_readers(service, stop, observations, failures)
        crashed = False
        try:
            live = []
            for i, point in enumerate(points):
                try:
                    if live and i % 4 == 3:
                        victim = live.pop(0)
                        _, lsn = service.delete(victim)
                        fine_ops.append(("delete", victim, None))
                    else:
                        lsn = service.insert(point, i)
                        fine_ops.append(("insert", point, i))
                        live.append(point)
                except SimulatedCrashError:
                    crashed = True
                    break
                published.append(
                    (lsn, frozenset(service.snapshot().items()))
                )
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert crashed, "fault plan never fired"
        _check_readers(observations, published, failures)
        got, _ = _assert_recovers_to_a_prefix(tmp_path, fine_ops)
        # sync=commit: every acknowledged op was fsynced before it
        # returned, so the recovered state is the *full* acknowledged
        # prefix, not an earlier one.
        assert got == _expected_prefixes(fine_ops)[-1]
