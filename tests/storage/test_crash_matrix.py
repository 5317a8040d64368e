"""The crash matrix: every crash point crossed with every workload.

Each cell drives one workload over a durable tree until an injected
fault kills the process mid-operation (or mid-checkpoint), recovers the
directory, and verifies recovery against a *differential shadow
oracle*:

- the committed operations reported by recovery form an **exact prefix**
  of the operations actually driven — no committed op lost, no
  uncommitted op leaked;
- replaying exactly that prefix into a fresh in-memory tree yields the
  same record set, the same count, and the same query answers as the
  recovered tree;
- the recovered tree passes the structural checker (occupancy and
  justification relaxed, as for any tree without operation history);
- recovering a second time changes nothing (idempotence).

The fast matrix (42 cells) runs in the default test lane; two oversized
cells are marked ``slow`` for the CI cron lane.  A bulk load commits as
one burst of records, one per page, so three more cells crash at fixed
points of that burst: inside it, on its commit record, and just after.
"""

import itertools

import pytest

from repro.core.tree import BVTree
from repro.errors import SimulatedCrashError
from repro.geometry.space import DataSpace
from repro.storage.durable.recovery import (
    create_durable_tree,
    open_durable_tree,
)
from repro.storage.faults import FaultPlan
from repro.workloads import (
    churn,
    clustered,
    grow_shrink,
    nested_hotspot,
    sequential_1d,
    uniform,
)

#: Tree operations that commit one WAL transaction each.
NAMED_OPS = ("insert", "delete", "bulk_load")

DIMS = 2
RESOLUTION = 16
CAPACITY = 4
FANOUT = 4


def dedup_by_path(points, space):
    """Drop points whose tree path collides with an earlier one."""
    seen = set()
    out = []
    for point in points:
        path = space.point_path(point)
        if path not in seen:
            seen.add(path)
            out.append(tuple(point))
    return out


def make_space():
    return DataSpace.unit(DIMS, resolution=RESOLUTION)


# ----------------------------------------------------------------------
# Workloads: every cell drives a list of ("insert"|"delete", point, value)
# ops; a ("bulk_load", records, None) op loads an empty tree
# ----------------------------------------------------------------------


def _ops_from_points(points):
    return [("insert", p, i) for i, p in enumerate(points)]


def _ops_from_stream(stream):
    ops = []
    value = 0
    for verb, point in stream:
        ops.append((verb, point, value if verb == "insert" else None))
        value += 1
    return ops


def workload_uniform(space, n):
    return _ops_from_points(dedup_by_path(uniform(n, DIMS, seed=11), space))


def workload_clustered(space, n):
    return _ops_from_points(
        dedup_by_path(clustered(n, DIMS, clusters=4, seed=12), space)
    )


def workload_hotspot(space, n):
    return _ops_from_points(
        dedup_by_path(nested_hotspot(n, DIMS, seed=13), space)
    )


def workload_sequential(space, n):
    return _ops_from_points(
        dedup_by_path(sequential_1d(n, ndim=DIMS), space)
    )


def workload_churn(space, n):
    points = dedup_by_path(uniform(n, DIMS, seed=14), space)
    return _ops_from_stream(churn(points, delete_fraction=0.3, seed=14))


def workload_grow_shrink(space, n):
    points = dedup_by_path(uniform(n, DIMS, seed=15), space)
    return _ops_from_stream(grow_shrink(points, shrink_to=0.25, seed=15))


def workload_bulk(space, n):
    """A bulk load of half the points, then inserts and deletes."""
    points = dedup_by_path(uniform(n, DIMS, seed=16), space)
    half = len(points) // 2
    ops = [("bulk_load", [(p, i) for i, p in enumerate(points[:half])], None)]
    for i, point in enumerate(points[half:]):
        ops.append(("insert", point, half + i))
        if i % 3 == 0:
            ops.append(("delete", points[i], None))
    return ops


WORKLOADS = {
    "uniform": workload_uniform,
    "clustered": workload_clustered,
    "hotspot": workload_hotspot,
    "sequential": workload_sequential,
    "churn": workload_churn,
    "grow_shrink": workload_grow_shrink,
    "bulk": workload_bulk,
}


# ----------------------------------------------------------------------
# Crash scenarios
# ----------------------------------------------------------------------


class Scenario:
    """One column of the matrix: a fault plan plus driver behaviour."""

    def __init__(
        self,
        name,
        plan_kwargs,
        sync="os",
        checkpoint_at=None,
        crash_in_checkpoint=False,
    ):
        self.name = name
        self.plan_kwargs = plan_kwargs
        self.sync = sync
        #: Operation index at which the driver calls checkpoint()
        #: (None = never).
        self.checkpoint_at = checkpoint_at
        #: True when the crash point is inside that checkpoint call —
        #: every driven op is then committed.
        self.crash_in_checkpoint = crash_in_checkpoint

    def plan(self):
        return FaultPlan(**self.plan_kwargs)


SCENARIOS = {
    "early-keep": Scenario(
        "early-keep", {"crash_after_appends": 19, "tail": "keep"}
    ),
    "mid-torn": Scenario(
        "mid-torn",
        {"crash_after_appends": 67, "tail": "torn", "torn_fraction": 0.5},
    ),
    "late-torn": Scenario(
        "late-torn",
        {"crash_after_appends": 131, "tail": "torn", "torn_fraction": 0.2},
    ),
    "commit-drop": Scenario(
        "commit-drop",
        {"crash_after_appends": 83, "tail": "drop_unsynced"},
        sync="commit",
    ),
    "ckpt-mid-write": Scenario(
        "ckpt-mid-write",
        {"crash_in_checkpoint": "mid_write"},
        checkpoint_at=40,
        crash_in_checkpoint=True,
    ),
    "ckpt-before-truncate": Scenario(
        "ckpt-before-truncate",
        {"crash_in_checkpoint": "before_truncate"},
        checkpoint_at=40,
        crash_in_checkpoint=True,
    ),
}


# ----------------------------------------------------------------------
# The driver and the differential oracle
# ----------------------------------------------------------------------


def apply_op(tree, op):
    verb, point, value = op
    if verb == "insert":
        tree.insert(point, value, replace=True)
    elif verb == "bulk_load":
        tree.bulk_load(point)
    else:
        tree.delete(point)


def drive_until_crash(tree, store, ops, scenario):
    """Apply ops until the fault fires.

    Returns ``(driven_ops, in_flight_op, ckpt_index)``: the operations
    that *returned* before the crash, the one that raised (its commit
    record may or may not have reached disk — the classic
    committed-but-unacknowledged window), and how many driven ops a
    successfully *installed* checkpoint had absorbed (None when no
    checkpoint was installed).
    """
    driven = []
    ckpt_index = None
    for index, op in enumerate(ops):
        if scenario.checkpoint_at is not None and index == scenario.checkpoint_at:
            try:
                store.checkpoint()
            except SimulatedCrashError:
                # mid_write leaves the old image; before_truncate has
                # already installed the new one.
                if scenario.plan_kwargs.get("crash_in_checkpoint") == (
                    "before_truncate"
                ):
                    ckpt_index = len(driven)
                return driven, None, ckpt_index
            ckpt_index = len(driven)
        try:
            apply_op(tree, op)
        except SimulatedCrashError:
            return driven, op, ckpt_index
        driven.append(op)
    pytest.fail("fault plan never fired; the cell tested nothing")


def shadow_replay(ops):
    """The expected tree: the same op prefix over the in-memory backend."""
    tree = BVTree(
        make_space(),
        data_capacity=CAPACITY,
        fanout=FANOUT,
    )
    for op in ops:
        apply_op(tree, op)
    return tree


def assert_trees_equal(recovered, expected):
    assert recovered.count == expected.count
    assert sorted(recovered.items()) == sorted(expected.items())
    box = ((0.1,) * DIMS, (0.8,) * DIMS)
    assert sorted(recovered.range_query(*box).records) == sorted(
        expected.range_query(*box).records
    )
    recovered.check(check_occupancy=False, check_justification=False)


def run_cell(tmp_path, workload_name, scenario_name, n_points):
    space = make_space()
    ops = WORKLOADS[workload_name](space, n_points)
    directory = tmp_path / f"{workload_name}-{scenario_name}"
    return check_crash(directory, space, ops, SCENARIOS[scenario_name])


def check_crash(directory, space, ops, scenario):
    """Drive ``ops`` into ``scenario``'s crash, recover and check it
    against the oracle; returns the recovered record count."""
    tree = create_durable_tree(
        directory,
        space,
        data_capacity=CAPACITY,
        fanout=FANOUT,
        faults=scenario.plan(),
        sync=scenario.sync,
    )
    driven, in_flight, ckpt_index = drive_until_crash(
        tree, tree.store, ops, scenario
    )
    assert tree.store.dead

    recovered, report = open_durable_tree(directory, sync="os")

    # --- The differential oracle -------------------------------------
    committed_names = [n for n in report.op_commits if n in NAMED_OPS]
    absorbed = ckpt_index if ckpt_index is not None else 0
    if scenario.crash_in_checkpoint:
        # The crash hit the checkpoint, not an operation: every driven
        # op committed.  Cross-check the report's accounting: ops the
        # installed checkpoint absorbed are stale, the rest replay.
        prefix_len = len(driven)
        assert absorbed + len(committed_names) == len(driven)
    else:
        prefix_len = absorbed + len(committed_names)
    # The in-flight op's commit record may have hit the log right
    # before the crash (committed but unacknowledged) — durability may
    # include it, but never anything beyond it.
    acknowledged_plus = list(driven) + (
        [in_flight] if in_flight is not None else []
    )
    assert prefix_len <= len(acknowledged_plus)
    # The committed operation names are exactly the names of the driven
    # prefix they claim to be (order included).
    assert committed_names == [
        verb for verb, _, _ in acknowledged_plus[absorbed:prefix_len]
    ]

    expected = shadow_replay(acknowledged_plus[:prefix_len])
    assert_trees_equal(recovered, expected)

    # --- Idempotence: recover the recovered directory ----------------
    recovered.store.close(checkpoint=False)
    again, report2 = open_durable_tree(directory, sync="os")
    assert sorted(again.items()) == sorted(expected.items())
    assert report2.records_uncommitted == 0
    again.store.close(checkpoint=False)
    return expected.count


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------

MATRIX = sorted(itertools.product(WORKLOADS, SCENARIOS))


@pytest.mark.parametrize(("workload", "scenario"), MATRIX)
def test_crash_cell(tmp_path, workload, scenario):
    run_cell(tmp_path, workload, scenario, n_points=230)


@pytest.mark.slow
@pytest.mark.parametrize(
    ("workload", "scenario"),
    [("churn", "late-torn"), ("grow_shrink", "commit-drop")],
)
def test_crash_cell_large(tmp_path, workload, scenario):
    run_cell(tmp_path, workload, scenario, n_points=2500)


def test_matrix_is_at_least_thirty_cells():
    assert len(MATRIX) >= 30


def bulk_burst(tmp_path, space, bulk_op):
    """The first and last append number of the bulk load's commit
    burst, from a fault-free run of the same build."""
    tree = create_durable_tree(
        tmp_path / "dry-run",
        space,
        data_capacity=CAPACITY,
        fanout=FANOUT,
        sync="os",
    )
    first = tree.store.wal_stats.appends + 1
    apply_op(tree, bulk_op)
    last = tree.store.wal_stats.appends
    tree.store.close(checkpoint=False)
    assert last - first >= 20, "the burst is too short to crash inside"
    return first, last


@pytest.mark.parametrize("where", ["mid-burst", "commit-record", "after-burst"])
def test_bulk_load_burst_crash(tmp_path, where):
    space = make_space()
    ops = workload_bulk(space, 230)
    first, last = bulk_burst(tmp_path, space, ops[0])
    crash_at = {
        "mid-burst": (first + last) // 2,
        "commit-record": last,
        "after-burst": last + 1,
    }[where]
    scenario = Scenario(
        f"bulk-{where}",
        {"crash_after_appends": crash_at, "tail": "torn", "torn_fraction": 0.5},
    )
    recovered = check_crash(tmp_path / where, space, ops, scenario)
    # A torn burst loses the whole load (the commit marker rides its
    # last record); once the burst is down, every record survives.
    assert recovered == (len(ops[0][1]) if where == "after-burst" else 0)
