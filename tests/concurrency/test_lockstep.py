"""Deterministic lockstep schedules: interleaved reads vs the oracle.

Each schedule is a list of writer/reader steps replayed in program
order by :func:`repro.concurrency.run_schedule`; the harness itself
raises :class:`LockstepError` if any read disagrees with the oracle
prefix at its LSN, so a passing test *is* the linearizability claim
for that schedule.  Randomized schedules here are seeded (reproducible
by construction); hand-pinned regression schedules live in
``tests/concurrency/repros/``.
"""

import random

import pytest


from tests.concurrency.conftest import distinct_points, make_space
from tests.concurrency.lockstep import LockstepError, build_service, run_schedule


def _queries(rng, live_points, all_points):
    """A reader step's query list: spot gets, one range, one knn."""
    queries = []
    for _ in range(3):
        pool = all_points if rng.random() < 0.3 else (live_points or all_points)
        point = pool[rng.randrange(len(pool))]
        queries.append({"kind": "get", "point": list(point)})
    lo = rng.random() * 0.7
    queries.append({
        "kind": "range",
        "lows": [lo, lo],
        "highs": [lo + 0.3, lo + 0.3],
    })
    queries.append({
        "kind": "knn",
        "point": [rng.random(), rng.random()],
        "k": 3,
    })
    return queries


def random_schedule(seed, n_ops=60, verify_every=10):
    """A seeded interleaving of inserts/deletes/batches and reader steps."""
    rng = random.Random(seed)
    space = make_space()
    points = distinct_points(n_ops, space, seed=seed + 1000)
    live = []
    cursor = 0
    schedule = []
    steps = 0
    while cursor < len(points):
        steps += 1
        roll = rng.random()
        if roll < 0.35 or not live:
            point = points[cursor]
            cursor += 1
            live.append(point)
            schedule.append({
                "actor": "writer",
                "op": {
                    "op": "insert",
                    "point": list(point),
                    "value": cursor,
                },
            })
        elif roll < 0.45 and len(live) > 2:
            point = live.pop(rng.randrange(len(live)))
            schedule.append({
                "actor": "writer",
                "op": {"op": "delete", "point": list(point)},
            })
        elif roll < 0.55 and cursor + 3 <= len(points):
            group = []
            for _ in range(3):
                point = points[cursor]
                cursor += 1
                live.append(point)
                group.append({
                    "op": "insert",
                    "point": list(point),
                    "value": cursor,
                })
            schedule.append({"actor": "writer", "group": group})
        else:
            step = {
                "actor": "reader",
                "queries": _queries(rng, live, points),
            }
            if steps % verify_every == 0:
                step["verify"] = "structure"
            schedule.append(step)
    schedule.append({
        "actor": "reader",
        "queries": _queries(rng, live, points),
        "verify": "structure",
    })
    return schedule


class TestRandomSchedules:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_schedule_linearizes(self, layout, seed):
        run_schedule(random_schedule(seed), layout=layout)

    def test_longer_schedule_with_batches(self, layout):
        run_schedule(random_schedule(1234, n_ops=150), layout=layout)


class TestExpectedFailures:
    def test_duplicate_insert_fails_both_sides_without_publishing(
        self, layout
    ):
        schedule = [
            {
                "actor": "writer",
                "op": {"op": "insert", "point": [0.5, 0.5], "value": 1},
            },
            {
                "actor": "writer",
                # The oracle knows the point is taken, so the harness
                # demands this insert fail with DuplicateKeyError and
                # publish nothing.
                "op": {"op": "insert", "point": [0.5, 0.5], "value": 2},
            },
            {
                "actor": "reader",
                "queries": [{"kind": "get", "point": [0.5, 0.5]}],
            },
        ]
        service = run_schedule(schedule, layout=layout)
        assert service.lsn == 1
        assert service.get((0.5, 0.5)) == 1

    def test_delete_of_missing_point_expected(self, layout):
        schedule = [
            {
                "actor": "writer",
                "op": {"op": "delete", "point": [0.9, 0.1]},
            },
        ]
        service = run_schedule(schedule, layout=layout)
        assert service.lsn == 0

    def test_unexpected_success_is_a_lockstep_error(self, layout):
        """If the oracle believes a point is live but the service lost
        it, the insert succeeds where the harness demanded a duplicate
        failure — that divergence must surface as a LockstepError."""
        service, oracle = build_service(layout)
        oracle.commit([{"op": "insert", "point": [0.3, 0.3], "value": 1}])
        with pytest.raises(LockstepError):
            run_schedule(
                [{
                    "actor": "writer",
                    "op": {"op": "insert", "point": [0.3, 0.3], "value": 2},
                }],
                service=service,
                oracle=oracle,
                layout=layout,
            )


class TestHarnessCatchesBugs:
    """The harness must *fail* when the service lies — meta-tests."""

    def test_stale_oracle_is_detected(self, layout):
        service, oracle = build_service(layout)
        service.insert((0.5, 0.5), "x")
        # The oracle missed the commit: the next reader step must fail
        # the lsn lockstep check.
        with pytest.raises(LockstepError):
            run_schedule(
                [{"actor": "reader", "queries": []}],
                service=service,
                oracle=oracle,
                layout=layout,
            )

    def test_wrong_value_is_detected(self, layout):
        from tests.concurrency.lockstep import verify_snapshot

        service, oracle = build_service(layout)
        oracle.commit([{"op": "insert", "point": [0.5, 0.5], "value": "A"}])
        service.insert((0.5, 0.5), "B")
        with pytest.raises(LockstepError):
            verify_snapshot(
                service.snapshot(),
                oracle,
                [{"kind": "get", "point": [0.5, 0.5]}],
            )
