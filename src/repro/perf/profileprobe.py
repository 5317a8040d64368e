"""The cost-profiler probe: the profiler's own overhead, measured.

Runs once per ``repro perf`` suite and fills the ``profile`` block of
``BENCH_<suite>.json`` with the two numbers the acceptance gate reads:

- ``profiler_overhead_ratio`` — the exact-match loop with an attached
  :class:`~repro.obs.OpProfiler` against the same loop bare.  The
  profiler's read-path cost is two clock reads, an IO-stat read and one
  raw-sample append per op (histograms are folded in batches, see
  :meth:`~repro.obs.metrics.Histogram.observe_many`); the budget is
  **1.05x**.
- ``detached_ratio`` — the same loop again after ``detach()``.  This is
  the "disabled path unchanged" proof: once the profiler lets go, the
  read path must time like it was never there (the hook is one ``is
  None`` attribute check).

Measuring a few-hundred-nanosecond hook under multi-percent machine
noise needs care, so the probe populates ``PROFILE_POINTS`` records at
every scale — the hook is a fixed cost per op, so the timed descents
must run at the full scale's depth, not the smoke scale's, for the
ratio and its budget verdict to mean the same thing in CI — and times
bare, profiled and detached as a pair on small warmed chunks with
:func:`repro.perf.timer.paired_lookups` (the median of per-round
ratios; see :mod:`repro.perf.timer`).

The block also carries the profiler's own view of the timed rounds —
per-kind op count, latency percentiles, mean page accesses — which
doubles as an end-to-end check that the direct-call hook saw every
lookup.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from typing import Any

from repro.obs import MetricsRegistry, OpProfiler
from repro.perf.obsprobe import probe_tree
from repro.perf.registry import Probe, Scale, register_probe
from repro.perf.timer import LOOKUP_CHUNK, LOOKUP_ROUNDS, paired_lookups

__all__ = ["PROFILE_OVERHEAD_BUDGET", "PROFILE_POINTS", "profile_snapshot"]

#: The acceptance gate on ``profiler_overhead_ratio``.
PROFILE_OVERHEAD_BUDGET = 1.05

#: Probe-tree population at every scale (the full scale's): the timed
#: descents run at serving depth, not the smoke scale's toy depth.
PROFILE_POINTS = 50_000


def profile_snapshot(scale: Scale) -> dict[str, Any]:
    """The ``profile`` block of a ``BENCH_<suite>.json`` snapshot."""
    tree, points = probe_tree(
        replace(scale, n_points=PROFILE_POINTS), PROFILE_POINTS
    )
    tree.bulk_load([(p, i) for i, p in enumerate(points)], replace=True)
    profiler = OpProfiler(tree, registry=MetricsRegistry())
    timing = paired_lookups(
        tree.get,
        points,
        {
            "bare": nullcontext,
            "profiled": lambda: profiler,
            "detached": nullcontext,
        },
    )
    get_profile = profiler.profiles.get("get")
    return {
        "chunk_ops": LOOKUP_CHUNK,
        "rounds": LOOKUP_ROUNDS,
        "tree_points": tree.count,
        "tree_height": tree.height,
        "budget_ratio": PROFILE_OVERHEAD_BUDGET,
        "bare_us_per_op": timing.median("bare") * 1e6,
        "profiled_us_per_op": timing.median("profiled") * 1e6,
        "detached_us_per_op": timing.median("detached") * 1e6,
        "profiler_overhead_ratio": timing.ratio("profiled", "bare"),
        "detached_ratio": timing.ratio("detached", "bare"),
        "get": (
            {
                "ops": get_profile.ops,
                "p50_us": get_profile.latency_us.quantile(0.5),
                "p99_us": get_profile.latency_us.quantile(0.99),
                "mean_us": get_profile.latency_us.mean,
                "mean_pages": get_profile.pages.mean,
            }
            if get_profile is not None
            else None
        ),
    }


def _rows(profile: dict[str, Any]) -> list[list[Any]]:
    ratio, budget = profile["profiler_overhead_ratio"], profile["budget_ratio"]
    rows = [
        ["bare exact match", f"{profile['bare_us_per_op']:.2f} us/op"],
        ["profiler attached", f"{profile['profiled_us_per_op']:.2f} us/op"],
        [
            f"profiler overhead (budget {budget:.2f}x)",
            f"{ratio:.3f}x "
            + ("(PASS)" if ratio <= budget else "(OVER BUDGET)"),
        ],
        ["after detach", f"{profile['detached_ratio']:.3f}x"],
    ]
    get = profile["get"]
    if get:
        rows.append([
            "profiler's own view (get)",
            f"{get['ops']} ops, p50 {get['p50_us']:.1f}us, "
            f"p99 {get['p99_us']:.1f}us, "
            f"{get['mean_pages']:.1f} pages/op",
        ])
    return rows


def _regressions(base: dict[str, Any], cur: dict[str, Any]) -> list[str]:
    """A profiler overhead ratio newly above the block's budget."""
    cur_ratio = cur.get("profiler_overhead_ratio")
    base_ratio = base.get("profiler_overhead_ratio")
    budget = cur.get("budget_ratio", PROFILE_OVERHEAD_BUDGET)
    if (
        cur_ratio is not None
        and cur_ratio > budget
        and (base_ratio is None or base_ratio <= budget)
    ):
        return [
            f"profiler overhead: {cur_ratio:.3f}x exceeds "
            f"the {budget:.2f}x budget"
        ]
    return []


register_probe(Probe(
    name="profile",
    label="profiler probe (cost-profiler overhead)",
    run=profile_snapshot,
    title=lambda profile: (
        f"cost-profiler probe (n={profile.get('tree_points')}, "
        f"height {profile.get('tree_height')}, "
        f"{profile.get('rounds')} paired rounds)"
    ),
    rows=_rows,
    regressions=_regressions,
))
