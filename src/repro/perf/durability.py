"""The durability probe: WAL overhead, fsync cost, recovery speed.

Runs once per ``repro perf`` suite (after the timed cases, like the
observability and health probes) and fills the ``durability`` block of
``BENCH_<suite>.json`` with the figures ``docs/DURABILITY.md`` quotes
and the acceptance gate reads:

- ``wal_overhead_ratio`` — insert cost through a
  :class:`~repro.storage.durable.DurableStore` in ``sync="os"`` mode
  (every mutation logged and flushed to the OS, no fsync) over the same
  loop on the in-memory :class:`~repro.storage.PageStore`.  This is the
  honest price of the durability *machinery* — encoding, framing,
  checksumming, the write syscall — and the gate holds it at or under
  3x.  Both loops build a fresh tree per sample and are timed as a pair
  (:func:`repro.perf.timer.paired`, median of per-round ratios).
  Physical fsync latency is a property of the disk, not the code, so it
  is reported separately:
- ``fsync_us_per_commit`` — measured extra cost per committed operation
  in ``sync="commit"`` mode over ``sync="os"`` on a smaller loop (each
  insert is one group-committed transaction, so this is the per-fsync
  price).
- ``recovery`` — wall-clock of a real crash/recover cycle: the probe
  kills the store mid-workload through a
  :class:`~repro.storage.faults.FaultPlan`, replays the WAL and
  rebuilds the tree.
- ``recovered_health`` — the guarantee doctor driven *on the recovered
  tree* for the rest of the workload: the paper's guarantees must keep
  holding after a crash, not just the page bytes.

The probe uses temporary directories and cleans up after itself; its
population is bounded (``PROBE_POINTS``) and drawn from the same seeded
generators as the timed cases.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Callable, ContextManager, Iterator

from repro.core.tree import BVTree
from repro.errors import SimulatedCrashError
from repro.geometry.space import DataSpace
from repro.obs import run_doctor
from repro.perf.registry import Probe, Scale, register_probe
from repro.perf.timer import paired
from repro.storage import PageStore
from repro.storage.durable import (
    DurableStore,
    create_durable_tree,
    open_durable_tree,
)
from repro.storage.faults import FaultPlan
from repro.workloads import churn, uniform

__all__ = ["durability_snapshot"]

#: Record-count cap for the overhead loops.
PROBE_POINTS = 2000
#: Paired rounds of the in-memory vs WAL insert loops (see
#: :func:`repro.perf.timer.paired`).
PROBE_ROUNDS = 5
#: Inserts in the fsync-mode loop (each is one fsynced commit, so this
#: loop pays PROBE_FSYNC_OPS physical syncs — keep it small).
PROBE_FSYNC_OPS = 128
#: Deletion fraction of the post-recovery churn stream.
RECOVERY_CHURN = 0.2


def _probe_points(scale: Scale) -> tuple[DataSpace, list[tuple[float, ...]]]:
    space = DataSpace.unit(scale.dims, resolution=scale.resolution)
    n = min(scale.n_points, PROBE_POINTS)
    # Path-deduplicate so the churn stream in the recovery leg stays
    # applicable (see repro.workloads.churn).
    seen: set[int] = set()
    points: list[tuple[float, ...]] = []
    for point in uniform(n, scale.dims, seed=scale.seed):
        path = space.point_path(point)
        if path not in seen:
            seen.add(path)
            points.append(tuple(point))
    return space, points


def _overhead(
    scale: Scale,
    space: DataSpace,
    points: list[tuple[float, ...]],
    workdir: str,
) -> dict[str, Any]:
    runs = itertools.count()

    def fresh(sync: str | None) -> Callable[[], ContextManager[BVTree]]:
        """A configuration: a new tree on a new store — in memory for
        ``sync=None``, else a WAL store in that sync mode — closed after."""

        @contextmanager
        def tree() -> Iterator[BVTree]:
            store = (
                PageStore()
                if sync is None
                else DurableStore(f"{workdir}/{sync}-{next(runs)}", sync=sync)
            )
            try:
                yield BVTree(
                    space,
                    data_capacity=scale.data_capacity,
                    fanout=scale.fanout,
                    store=store,
                    layout="object",
                )
            finally:
                if isinstance(store, DurableStore):
                    store.close(checkpoint=False)

        return tree

    def inserts(tree: BVTree, batch: list[tuple[float, ...]]) -> None:
        insert = tree.insert
        for i, point in enumerate(batch):
            insert(point, i, replace=True)

    timing = paired(
        inserts,
        {"memory": fresh(None), "wal": fresh("os")},
        [points] * PROBE_ROUNDS,
    )
    # fsync mode over a deliberately small loop: one fsync per insert,
    # priced against the same loop in sync="os" mode.
    fsync_points = points[:PROBE_FSYNC_OPS]
    fsync = paired(
        inserts,
        {"commit": fresh("commit"), "os": fresh("os")},
        [fsync_points],
    )

    n = len(points)
    return {
        "inserts": n,
        "memory_us_per_insert": timing.median("memory") / n * 1e6,
        "wal_us_per_insert": timing.median("wal") / n * 1e6,
        "wal_overhead_ratio": timing.ratio("wal", "memory"),
        "fsync_commits": len(fsync_points),
        "fsync_us_per_commit": max(
            0.0,
            (fsync.median("commit") - fsync.median("os"))
            / len(fsync_points)
            * 1e6,
        ),
    }


def _crash_and_recover(
    scale: Scale,
    space: DataSpace,
    points: list[tuple[float, ...]],
    workdir: str,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One full crash/recover cycle plus the doctor on the survivor."""
    directory = f"{workdir}/crash"
    # Crash roughly five sixths of the way through the insert
    # stream: an insert costs ~1.2 WAL appends (one delta record that
    # doubles as the commit marker, plus one record per other page an
    # occasional split touches).
    plan = FaultPlan(
        crash_after_appends=max(4, len(points)), tail="torn"
    )
    tree = create_durable_tree(
        directory,
        space,
        data_capacity=scale.data_capacity,
        fanout=scale.fanout,
        faults=plan,
        sync="os",
    )
    driven = 0
    try:
        for i, point in enumerate(points):
            tree.insert(point, i, replace=True)
            driven += 1
    except SimulatedCrashError:
        pass

    start = time.perf_counter()
    recovered, report = open_durable_tree(directory)
    elapsed = time.perf_counter() - start
    recovery = {
        "crashed_after_ops": driven,
        "records_scanned": report.records_scanned,
        "records_replayed": report.records_replayed,
        "committed_txns": report.committed_txns,
        "torn_tail": report.torn_tail,
        "recovered_records": recovered.count,
        "ms_total": elapsed * 1e3,
        "us_per_record": (
            elapsed / report.records_replayed * 1e6
            if report.records_replayed
            else None
        ),
    }

    # Drive the rest of the workload — with deletions — on the recovered
    # tree under the guarantee doctor: the paper's guarantees must hold
    # across the crash boundary.
    committed = sum(
        1
        for name in report.op_commits
        if name in ("insert", "delete", "bulk_load")
    )
    remaining = points[len([n for n in report.op_commits if n == "insert"]) :]
    operations = churn(
        remaining, delete_fraction=RECOVERY_CHURN, seed=scale.seed
    )
    result = run_doctor(
        recovered,
        operations,
        sample_every=64,
        max_samples=64,
        workload="recovered+churn",
    )
    recovered.store.close()
    recovered_health = {
        "ok": result.exit_code == 0,
        "audit_clean": result.audit.clean,
        "verdicts": result.health.verdicts,
        "ops_after_recovery": result.ops_applied,
        "committed_ops_replayed": committed,
    }
    return recovery, recovered_health


def durability_snapshot(scale: Scale) -> dict[str, Any]:
    """The ``durability`` block of a ``BENCH_<suite>.json`` snapshot."""
    space, points = _probe_points(scale)
    workdir = tempfile.mkdtemp(prefix="repro-durability-")
    try:
        out = {
            "probe_points": len(points),
            "overhead": _overhead(scale, space, points, workdir),
        }
        recovery, recovered_health = _crash_and_recover(
            scale, space, points, workdir
        )
        out["recovery"] = recovery
        out["recovered_health"] = recovered_health
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: The gate on ``overhead.wal_overhead_ratio``.
WAL_OVERHEAD_BUDGET = 3.0


def _rows(durability: dict[str, Any]) -> list[list[Any]]:
    overhead = durability["overhead"]
    recovery = durability["recovery"]
    recovered = durability["recovered_health"]
    detail = ", ".join(
        f"{k}={v}" for k, v in sorted(recovered["verdicts"].items())
    )
    return [
        ["in-memory insert", f"{overhead['memory_us_per_insert']:.2f} us/op"],
        ["WAL insert (sync=os)", f"{overhead['wal_us_per_insert']:.2f} us/op"],
        ["WAL overhead", f"{overhead['wal_overhead_ratio']:.2f}x"],
        [
            "fsync per commit (sync=commit)",
            f"{overhead['fsync_us_per_commit']:.0f} us",
        ],
        [
            "crash recovery",
            f"{recovery['ms_total']:.1f} ms for "
            f"{recovery['records_replayed']} records "
            f"({recovery['recovered_records']} recovered)",
        ],
        ["torn tail discarded", "yes" if recovery["torn_tail"] else "no"],
        [
            "recovered-tree guarantees",
            "PASS" if recovered["ok"] else f"FAIL ({detail})",
        ],
    ]


def _regressions(base: dict[str, Any], cur: dict[str, Any]) -> list[str]:
    """A WAL overhead ratio newly above its budget, or recovered-tree
    guarantees that went from passing to failing."""
    out: list[str] = []
    base_ratio = (base.get("overhead") or {}).get("wal_overhead_ratio")
    cur_ratio = (cur.get("overhead") or {}).get("wal_overhead_ratio")
    if (
        cur_ratio is not None
        and cur_ratio > WAL_OVERHEAD_BUDGET
        and (base_ratio is None or base_ratio <= WAL_OVERHEAD_BUDGET)
    ):
        out.append(f"WAL overhead: {cur_ratio:.2f}x exceeds the 3x budget")
    cur_rec = cur.get("recovered_health") or {}
    base_rec = base.get("recovered_health") or {}
    if base_rec.get("ok", True) and cur_rec and not cur_rec.get("ok", True):
        out.append("recovered-tree guarantees: ok -> failing")
    return out


register_probe(Probe(
    name="durability",
    label="durability probe (WAL overhead + crash recovery)",
    run=durability_snapshot,
    title=lambda durability: (
        f"durability probe (n={durability.get('probe_points')}, "
        f"WAL vs in-memory)"
    ),
    rows=_rows,
    regressions=_regressions,
))
