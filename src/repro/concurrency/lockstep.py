"""Lockstep / linearizability harness for the concurrency layer.

The correctness claim the serving layer makes is narrow and checkable:
with a single writer, the committed write history is a total order, so
**every read must equal the single-threaded oracle's state after
exactly ``lsn`` commits** — the LSN its snapshot pinned.  Un-pinned
reads must match *some* prefix between the history positions observed
before and after the call.  This module provides:

- :class:`Oracle` — a brute-force single-threaded model (dict of
  records keyed by bit path) that stores the state after every commit;
- :func:`run_schedule` — deterministic schedule-replay mode: one thread
  interleaves writer and reader steps from an explicit (JSON-friendly)
  schedule and validates every read in place;
- :func:`run_threads` — free-running mode: one writer thread races
  reader threads, observations are validated post-hoc against the
  oracle history;
- :func:`load_schedule` / :func:`dump_schedule` — the repro-file
  round-trip used by ``tests/concurrency/repros/``.

Schedules are lists of JSON dict steps::

    {"actor": "writer", "op": {"op": "insert", "point": [..], "value": v,
                               "replace": false}}
    {"actor": "writer", "batch": [op, ...]}     # all-or-nothing
    {"actor": "writer", "group": [op, ...]}     # group commit
    {"actor": "reader", "queries": [{"kind": "get", "point": [..]},
                                    {"kind": "range", "lows": [..],
                                     "highs": [..]},
                                    {"kind": "knn", "point": [..], "k": 2}]}
    {"actor": "reader", "verify": "structure"}  # materialize + check/doctor

Hypothesis's shrinker works directly on this representation, so a
falsified property serializes to a replayable repro file.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any, Sequence

from repro.concurrency.service import BatchAbortedError, TreeService
from repro.concurrency.snapshots import Snapshot
from repro.core.columnar import DEFAULT_LAYOUT
from repro.core.tree import BVTree
from repro.errors import DuplicateKeyError, KeyNotFoundError, ReproError
from repro.geometry.space import DataSpace

__all__ = [
    "LockstepError",
    "Oracle",
    "build_service",
    "dump_schedule",
    "load_schedule",
    "run_schedule",
    "run_threads",
    "verify_snapshot",
    "verify_structure",
]

Step = dict[str, Any]


class LockstepError(AssertionError):
    """A read diverged from the oracle (the harness's failure signal)."""


class Oracle:
    """Single-threaded model of the committed write history.

    ``state_at(k)`` is the record set after exactly ``k`` commits —
    index 0 is the pre-history state the service was built from.  Points
    are keyed by their bit path at the space's resolution, replicating
    the index's duplicate semantics exactly.
    """

    def __init__(
        self,
        space: DataSpace,
        initial: Sequence[tuple[Sequence[float], Any]] = (),
    ):
        self.space = space
        state = {
            space.point_path(point): (tuple(point), value)
            for point, value in initial
        }
        self._history: list[dict[int, tuple[tuple[float, ...], Any]]] = [state]

    @property
    def lsn(self) -> int:
        """Number of commits the oracle has modelled."""
        return len(self._history) - 1

    def state_at(self, lsn: int) -> dict[int, tuple[tuple[float, ...], Any]]:
        """The record set after exactly ``lsn`` commits."""
        return self._history[lsn]

    def current(self) -> dict[int, tuple[tuple[float, ...], Any]]:
        return self._history[-1]

    def has(self, point: Sequence[float]) -> bool:
        return self.space.point_path(point) in self.current()

    def commit(self, ops: Sequence[dict[str, Any]]) -> None:
        """Model one commit (an op, a group, or an all-or-nothing batch)."""
        state = dict(self.current())
        for op in ops:
            path = self.space.point_path(op["point"])
            if op["op"] == "insert":
                state[path] = (tuple(op["point"]), op.get("value"))
            elif op["op"] == "delete":
                del state[path]
            else:
                raise ReproError(f"oracle op must be insert/delete: {op!r}")
        self._history.append(state)

    # -- brute-force query answers --------------------------------------

    def brute_get(self, lsn: int, point: Sequence[float]) -> tuple[bool, Any]:
        record = self.state_at(lsn).get(self.space.point_path(point))
        if record is None:
            return False, None
        return True, record[1]

    def brute_range(
        self, lsn: int, lows: Sequence[float], highs: Sequence[float]
    ) -> set[tuple[tuple[float, ...], Any]]:
        out = set()
        for point, value in self.state_at(lsn).values():
            if all(lo <= c < hi for c, lo, hi in zip(point, lows, highs)):
                out.add((point, value))
        return out

    def brute_knn_distances(
        self, lsn: int, point: Sequence[float], k: int
    ) -> list[float]:
        """The k smallest Euclidean distances (ties kept, sorted)."""
        distances = sorted(
            math.dist(point, p) for p, _ in self.state_at(lsn).values()
        )
        return distances[:k]


# ----------------------------------------------------------------------
# Snapshot validation
# ----------------------------------------------------------------------


def verify_snapshot(
    snapshot: Snapshot,
    oracle: Oracle,
    queries: Sequence[dict[str, Any]] = (),
) -> None:
    """Assert a snapshot equals the oracle's state at the snapshot's LSN.

    Checks the full record set, the count, and each requested query.
    Raises :class:`LockstepError` with a diff on divergence.
    """
    lsn = snapshot.lsn
    expected = oracle.state_at(lsn)
    observed = {
        snapshot.space.point_path(point): (tuple(point), value)
        for point, value in snapshot.items()
    }
    if observed != expected:
        missing = sorted(expected.keys() - observed.keys())[:5]
        extra = sorted(observed.keys() - expected.keys())[:5]
        raise LockstepError(
            f"snapshot at lsn={lsn} diverges from oracle prefix: "
            f"{len(observed)} records vs {len(expected)} expected "
            f"(missing paths {missing}, extra paths {extra})"
        )
    if len(snapshot) != len(expected):
        raise LockstepError(
            f"snapshot count {len(snapshot)} != oracle {len(expected)} "
            f"at lsn={lsn}"
        )
    for query in queries:
        _verify_query(snapshot, oracle, lsn, query)


def _verify_query(
    snapshot: Snapshot, oracle: Oracle, lsn: int, query: dict[str, Any]
) -> None:
    kind = query["kind"]
    if kind == "get":
        point = query["point"]
        found, expected_value = oracle.brute_get(lsn, point)
        try:
            value = snapshot.get(point)
        except KeyNotFoundError:
            if found:
                raise LockstepError(
                    f"get({point}) missing at lsn={lsn}; oracle has "
                    f"{expected_value!r}"
                ) from None
            return
        if not found or value != expected_value:
            raise LockstepError(
                f"get({point}) = {value!r} at lsn={lsn}; oracle says "
                f"{'absent' if not found else repr(expected_value)}"
            )
    elif kind == "range":
        lows, highs = query["lows"], query["highs"]
        result = snapshot.range_query(lows, highs)
        observed = {(tuple(p), v) for p, v in result.records}
        expected = oracle.brute_range(lsn, lows, highs)
        if observed != expected:
            raise LockstepError(
                f"range({lows}, {highs}) returned {len(observed)} records "
                f"at lsn={lsn}, oracle expects {len(expected)}"
            )
    elif kind == "knn":
        point, k = query["point"], query.get("k", 1)
        result = snapshot.nearest(point, k=k)
        observed = [n.distance for n in result.neighbours]
        expected = oracle.brute_knn_distances(lsn, point, k)
        if len(observed) != len(expected) or any(
            not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
            for a, b in zip(observed, expected)
        ):
            raise LockstepError(
                f"knn({point}, k={k}) distances {observed} at lsn={lsn}; "
                f"oracle expects {expected}"
            )
    else:
        raise ReproError(f"unknown query kind {kind!r}")


def verify_structure(snapshot: Snapshot) -> None:
    """Materialize a snapshot and run the checker plus the doctor on it.

    This is the torn-cascade / guard-set-inconsistency detector: a
    published version must always be a structurally valid tree, exactly
    as if the writer had stopped at that commit.  Occupancy and
    justification are relaxed as for any tree without operation history
    (snapshot loads and crash recovery check the same way).
    """
    from repro.obs.report import run_doctor

    tree = snapshot.materialize()
    tree.check(check_occupancy=False, check_justification=False)
    result = run_doctor(tree, workload="snapshot")
    if result.exit_code != 0:
        raise LockstepError(
            f"doctor exit {result.exit_code} on snapshot at "
            f"lsn={snapshot.lsn}: {result.health.to_dict()}"
        )


# ----------------------------------------------------------------------
# Deterministic schedule replay
# ----------------------------------------------------------------------


def build_service(
    layout: str = DEFAULT_LAYOUT,
    *,
    space: DataSpace | None = None,
    data_capacity: int = 4,
    fanout: int = 4,
    tree: BVTree | None = None,
) -> tuple[TreeService, Oracle]:
    """A small service + oracle pair for lockstep runs.

    Tiny capacities by default so schedules of tens of ops exercise
    multi-level splits, promotion and merges.  Pass ``tree`` to run
    against an existing (e.g. durable or buffered) tree instead.
    """
    if tree is None:
        if space is None:
            space = DataSpace.unit(2, resolution=8)
        tree = BVTree(
            space,
            data_capacity=data_capacity,
            fanout=fanout,
            layout=layout,
        )
    service = TreeService(tree)
    oracle = Oracle(tree.space, initial=list(service.snapshot().items()))
    return service, oracle


def run_schedule(
    schedule: Sequence[Step],
    *,
    service: TreeService | None = None,
    oracle: Oracle | None = None,
    layout: str = DEFAULT_LAYOUT,
) -> TreeService:
    """Replay one interleaved schedule deterministically, validating reads.

    Writer steps drive the service and keep the oracle in lockstep
    (including expected failures: a duplicate insert must fail on both
    sides and must not publish).  Reader steps pin a snapshot and verify
    it against the oracle prefix at its LSN.  Returns the service so
    callers can keep asserting (or reuse it across schedules).
    """
    if service is None or oracle is None:
        service, oracle = build_service(layout)
    for step in schedule:
        actor = step.get("actor")
        if actor == "writer":
            _writer_step(service, oracle, step)
        elif actor == "reader":
            snapshot = service.snapshot()
            if snapshot.lsn != oracle.lsn:
                raise LockstepError(
                    f"deterministic schedule out of sync: snapshot "
                    f"lsn={snapshot.lsn}, oracle lsn={oracle.lsn}"
                )
            verify_snapshot(snapshot, oracle, step.get("queries", ()))
            if step.get("verify") == "structure":
                verify_structure(snapshot)
        else:
            raise ReproError(f"schedule step needs an actor: {step!r}")
    return service


def _writer_step(service: TreeService, oracle: Oracle, step: Step) -> None:
    if "op" in step:
        op = step["op"]
        lsn_before = service.lsn
        if op["op"] == "insert":
            replace = bool(op.get("replace", False))
            duplicate = oracle.has(op["point"]) and not replace
            try:
                service.insert(op["point"], op.get("value"), replace=replace)
            except DuplicateKeyError:
                if not duplicate:
                    raise LockstepError(
                        f"unexpected duplicate for {op!r}"
                    ) from None
                if service.lsn != lsn_before:
                    raise LockstepError(
                        "failed insert published a version"
                    ) from None
                return
            if duplicate:
                raise LockstepError(f"insert {op!r} should have failed")
            oracle.commit([op])
        elif op["op"] == "delete":
            present = oracle.has(op["point"])
            try:
                service.delete(op["point"])
            except KeyNotFoundError:
                if present:
                    raise LockstepError(
                        f"delete {op!r} missed a present record"
                    ) from None
                if service.lsn != lsn_before:
                    raise LockstepError(
                        "failed delete published a version"
                    ) from None
                return
            if not present:
                raise LockstepError(f"delete {op!r} should have missed")
            oracle.commit([op])
        else:
            raise ReproError(f"unknown writer op {op!r}")
    elif "batch" in step:
        ops = step["batch"]
        lsn_before = service.lsn
        try:
            service.apply_batch([_wire(op) for op in ops])
        except BatchAbortedError:
            if service.lsn != lsn_before:
                raise LockstepError(
                    "aborted batch published a version"
                ) from None
            return
        oracle.commit(ops)
    elif "group" in step:
        ops = step["group"]
        outcomes, _ = service.apply_ops([_wire(op) for op in ops])
        committed = [op for op, (ok, _) in zip(ops, outcomes) if ok]
        if committed:
            oracle.commit(committed)
    else:
        raise ReproError(f"writer step needs op/batch/group: {step!r}")


def _wire(op: dict[str, Any]) -> tuple:
    if op["op"] == "insert":
        return (
            "insert",
            tuple(op["point"]),
            op.get("value"),
            bool(op.get("replace", False)),
        )
    if op["op"] == "delete":
        return ("delete", tuple(op["point"]))
    raise ReproError(f"unknown wire op {op!r}")


# ----------------------------------------------------------------------
# Free-running threaded mode
# ----------------------------------------------------------------------


def run_threads(
    service: TreeService,
    ops: Sequence[dict[str, Any]],
    *,
    readers: int = 4,
    probe_points: Sequence[Sequence[float]] = (),
) -> None:
    """Race one writer thread against snapshot readers, then validate.

    The writer applies ``ops`` in order, recording each committed
    ``(lsn, op)``.  Readers continuously pin snapshots and record
    ``(lsn, full record set, spot-get observations)``.  After joining,
    the committed log rebuilds an oracle and every observation is
    checked against the prefix its LSN names — the single-writer
    linearizability condition.  Reader exceptions (there must be none)
    are re-raised.
    """
    initial = list(service.snapshot().items())
    base_lsn = service.lsn
    committed: list[tuple[int, dict[str, Any]]] = []
    done = threading.Event()
    observations: list[
        tuple[int, frozenset[tuple[tuple[float, ...], Any]]]
    ] = []
    spot_reads: list[tuple[int, tuple[float, ...], bool, Any]] = []
    failures: list[BaseException] = []
    obs_lock = threading.Lock()

    def writer() -> None:
        try:
            for op in ops:
                try:
                    if op["op"] == "insert":
                        lsn = service.insert(
                            op["point"],
                            op.get("value"),
                            replace=bool(op.get("replace", False)),
                        )
                    else:
                        _, lsn = service.delete(op["point"])
                except (DuplicateKeyError, KeyNotFoundError):
                    continue
                committed.append((lsn, op))
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)
        finally:
            done.set()

    def reader() -> None:
        try:
            while True:
                finished = done.is_set()
                snapshot = service.snapshot()
                records = frozenset(
                    (tuple(p), v) for p, v in snapshot.items()
                )
                spots = []
                for point in probe_points:
                    try:
                        spots.append(
                            (snapshot.lsn, tuple(point), True,
                             snapshot.get(point))
                        )
                    except KeyNotFoundError:
                        spots.append(
                            (snapshot.lsn, tuple(point), False, None)
                        )
                with obs_lock:
                    observations.append((snapshot.lsn, records))
                    spot_reads.extend(spots)
                if finished:
                    return
        except BaseException as exc:
            failures.append(exc)

    threads = [threading.Thread(target=writer)]
    threads.extend(threading.Thread(target=reader) for _ in range(readers))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]

    # Rebuild the oracle from the committed log and validate post-hoc.
    oracle = Oracle(service.tree.space, initial=initial)
    for lsn, op in committed:
        if lsn != base_lsn + oracle.lsn + 1:
            raise LockstepError(
                f"committed log has a gap: op published lsn={lsn}, "
                f"expected {base_lsn + oracle.lsn + 1}"
            )
        oracle.commit([op])
    top = base_lsn + oracle.lsn
    for lsn, records in observations:
        if not base_lsn <= lsn <= top:
            raise LockstepError(
                f"observed lsn={lsn} outside committed history "
                f"[{base_lsn}, {top}]"
            )
        expected = frozenset(oracle.state_at(lsn - base_lsn).values())
        if records != expected:
            raise LockstepError(
                f"threaded snapshot at lsn={lsn} diverges: "
                f"{len(records)} records vs {len(expected)} expected"
            )
    for lsn, point, found, value in spot_reads:
        expected_found, expected_value = oracle.brute_get(
            lsn - base_lsn, point
        )
        if found != expected_found or (found and value != expected_value):
            raise LockstepError(
                f"spot get({point}) at lsn={lsn} saw "
                f"{(found, value)}, oracle says "
                f"{(expected_found, expected_value)}"
            )


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------


def dump_schedule(schedule: Sequence[Step], path: Path | str) -> Path:
    """Write a schedule as a JSON repro file (one replayable artifact)."""
    target = Path(path)
    target.write_text(json.dumps(list(schedule), indent=2) + "\n")
    return target


def load_schedule(path: Path | str) -> list[Step]:
    """Read a schedule repro file written by :func:`dump_schedule`."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list):
        raise ReproError(f"schedule file {path} must hold a JSON list")
    return data
