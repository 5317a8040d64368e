"""Property tests: no schedule surfaces a torn cascade or guard drift.

Hypothesis generates interleaved writer/reader schedules (ops drawn
from a small grid so duplicates and delete-of-present cases actually
occur) and :func:`run_schedule` replays each, with structural
verification (materialize + invariant checker + doctor) at the end.
Falsifying examples shrink to minimal schedules; anything found here
should be pinned as a JSON repro in ``tests/concurrency/repros/``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.concurrency.lockstep import run_schedule

# A coarse grid keeps the key space small enough that random ops hit
# the same paths often — the interesting cases (duplicate inserts,
# deletes of just-inserted points, replace chains) arise naturally.
_COORD = st.sampled_from([i / 8 + 1 / 16 for i in range(8)])
_POINT = st.tuples(_COORD, _COORD)

_INSERT = st.fixed_dictionaries({
    "op": st.just("insert"),
    "point": _POINT.map(list),
    "value": st.integers(min_value=0, max_value=99),
    "replace": st.booleans(),
})
_DELETE = st.fixed_dictionaries({
    "op": st.just("delete"),
    "point": _POINT.map(list),
})
_WRITE_OP = st.one_of(_INSERT, _DELETE)

_READER_STEP = st.fixed_dictionaries({
    "actor": st.just("reader"),
    "queries": st.lists(
        st.one_of(
            st.fixed_dictionaries({
                "kind": st.just("get"),
                "point": _POINT.map(list),
            }),
            st.fixed_dictionaries({
                "kind": st.just("range"),
                "lows": st.just([0.25, 0.25]),
                "highs": st.just([0.75, 0.75]),
            }),
            st.fixed_dictionaries({
                "kind": st.just("knn"),
                "point": _POINT.map(list),
                "k": st.integers(min_value=1, max_value=4),
            }),
        ),
        max_size=3,
    ),
})

_WRITER_STEP = st.one_of(
    st.fixed_dictionaries({"actor": st.just("writer"), "op": _WRITE_OP}),
    st.fixed_dictionaries({
        "actor": st.just("writer"),
        "group": st.lists(_WRITE_OP, min_size=1, max_size=4),
    }),
    st.fixed_dictionaries({
        "actor": st.just("writer"),
        "batch": st.lists(_WRITE_OP, min_size=1, max_size=4),
    }),
)

_SCHEDULE = st.lists(
    st.one_of(_WRITER_STEP, _WRITER_STEP, _READER_STEP),
    min_size=1,
    max_size=40,
)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestScheduleProperties:
    @_SETTINGS
    @given(schedule=_SCHEDULE)
    def test_no_schedule_breaks_lockstep_object(self, schedule):
        service = run_schedule(schedule, layout="object")
        self._verify_end_state(service)

    @_SETTINGS
    @given(schedule=_SCHEDULE)
    def test_no_schedule_breaks_lockstep_columnar(self, schedule):
        service = run_schedule(schedule, layout="columnar")
        self._verify_end_state(service)

    @staticmethod
    def _verify_end_state(service):
        """After any schedule: the final snapshot materializes into a
        tree that passes the invariant checker and the doctor — no torn
        split cascade, no guard-set inconsistency survived."""
        from tests.concurrency.lockstep import verify_structure

        verify_structure(service.snapshot())
