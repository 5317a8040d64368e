"""The probe contract, exercised on the committed BENCH_core.json."""

import copy

import pytest

from repro.obs.report import format_table
from repro.perf import SuiteResult, default_path, probes
from repro.perf.registry import Scale
from repro.perf.runner import probe_regressions, render_text

#: Top-level keys of a snapshot before the probe registry existed, less
#: the retired in-process serving block.
SNAPSHOT_KEYS = [
    "schema_version", "suite", "created", "scale", "results", "derived",
    "observability", "health", "durability", "columnar", "profile",
]


@pytest.fixture(scope="module")
def committed():
    return SuiteResult.load(default_path("core"))


def _with_block(result, name, **overrides):
    """A copy of ``result`` with one probe block's keys overridden."""
    clone = copy.copy(result)
    clone.probes = copy.deepcopy(result.probes)
    clone.probes[name].update(overrides)
    return clone


@pytest.mark.parametrize("probe", probes(), ids=lambda p: p.name)
def test_committed_block_loads_renders_and_passes(committed, probe):
    block = committed.probes[probe.name]
    table = format_table(
        [probe.name, "value"], probe.rows(block), probe.title(block)
    )
    assert table.splitlines()[0] == probe.title(block)
    assert probe.rows(block)
    assert probe.regressions(block, block) == []
    assert probe.failures(block) == []


def test_to_dict_keeps_the_snapshot_schema(committed):
    assert list(committed.to_dict()) == SNAPSHOT_KEYS
    # The retired serving block is still in the committed file; loading
    # drops it rather than failing.
    assert "serving" not in committed.probes


def test_render_draws_every_probe_block(committed):
    text = render_text(committed, baseline=committed)
    for probe in probes():
        assert probe.title(committed.probes[probe.name]) in text
    assert "guarantees: no regressions vs baseline" in text


class TestGates:
    def test_wal_overhead_breach(self, committed):
        base = _with_block(committed, "durability", overhead={
            "wal_overhead_ratio": 2.5,
        })
        heavy = _with_block(committed, "durability", overhead={
            "wal_overhead_ratio": 3.4,
        })
        assert probe_regressions(base, heavy) == [
            "WAL overhead: 3.40x exceeds the 3x budget"
        ]
        # Already over budget at the baseline: not a new regression.
        assert probe_regressions(heavy, heavy) == []

    def test_recovered_health_failing(self, committed):
        failing = _with_block(committed, "durability", recovered_health={
            "ok": False, "verdicts": {"occupancy": "violation"},
        })
        assert probe_regressions(committed, failing) == [
            "recovered-tree guarantees: ok -> failing"
        ]
        text = render_text(failing, baseline=committed)
        assert "FAIL (occupancy=violation)" in text
        assert "guarantee REGRESSIONS" in text

    def test_profiler_over_budget(self, committed):
        base = _with_block(
            committed, "profile", profiler_overhead_ratio=1.01
        )
        heavy = _with_block(
            committed, "profile", profiler_overhead_ratio=1.2
        )
        assert probe_regressions(base, heavy) == [
            "profiler overhead: 1.200x exceeds the 1.05x budget"
        ]
        assert "(OVER BUDGET)" in render_text(heavy)

    def test_oracle_divergence_is_a_failure(self, committed):
        probe = {p.name: p for p in probes()}["columnar"]
        block = copy.deepcopy(committed.probes["columnar"])
        block["oracle"].update(equal=False, range_equal=False)
        assert probe.failures(block) == [
            "columnar layout oracle DIVERGED from the object layout on: "
            "range_equal"
        ]


class TestCrashAndRecover:
    def test_committed_ops_replayed_counts_ops(self, tmp_path, monkeypatch):
        from repro.perf import durability

        reports = []
        real_open = durability.open_durable_tree

        def capture(*args, **kwargs):
            tree, report = real_open(*args, **kwargs)
            reports.append(report)
            return tree, report

        monkeypatch.setattr(durability, "open_durable_tree", capture)
        scale = Scale(name="smoke", n_points=200)
        space, points = durability._probe_points(scale)
        _, health = durability._crash_and_recover(
            scale, space, points, str(tmp_path)
        )
        [report] = reports
        expected = sum(
            1
            for name in report.op_commits
            if name in {"insert", "delete", "bulk_load"}
        )
        assert health["committed_ops_replayed"] == expected
        assert expected > 1
