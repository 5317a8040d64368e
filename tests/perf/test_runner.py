"""End-to-end tests of the benchmark runner (tiny scale)."""

import pytest

from repro.errors import ReproError
from repro.perf.registry import REGISTRY, Scale
from repro.perf.results import BenchResult
from repro.perf.runner import (
    derive_metrics,
    probe_regressions,
    render_text,
    run_suite,
)
from repro.perf.scenarios import build_context
from tests.core.test_query import range_query_rectpath

#: Small enough to run in well under a second, large enough to split.
TINY = Scale(
    name="smoke",
    n_points=300,
    n_queries=10,
    n_range_queries=5,
    n_knn_queries=3,
    repeats=1,
    warmup=0,
)


@pytest.fixture(scope="module")
def suite_result():
    return run_suite(TINY, suite="test")


class TestRunSuite:
    def test_runs_every_registered_case(self, suite_result):
        assert [r.name for r in suite_result.results] == list(REGISTRY)

    def test_scale_recorded(self, suite_result):
        assert suite_result.scale["n_points"] == 300
        assert suite_result.suite == "test"

    def test_acceptance_counters_present(self, suite_result):
        # The range case's counters must equal the float-rect reference
        # run over the same (seeded) tree and query boxes.
        native = suite_result.result("range")
        ctx = build_context(TINY)
        pages = found = 0
        for rect in ctx.rects:
            result = range_query_rectpath(ctx.tree, rect)
            pages += result.pages_visited
            found += len(result)
        assert native.counters["pages_visited"] > 0
        assert native.counters == {"pages_visited": pages, "records_found": found}

    def test_derived_metrics(self, suite_result):
        derived = suite_result.derived
        assert derived["bulk_load_speedup"] > 0

    def test_only_selects_cases(self):
        result = run_suite(TINY, only=["bulk_load", "exact_match"])
        assert [r.name for r in result.results] == ["bulk_load", "exact_match"]
        assert "bulk_load_speedup" not in result.derived

    def test_unknown_case_rejected(self):
        with pytest.raises(ReproError):
            run_suite(TINY, only=["nope"])

    def test_progress_callback(self):
        seen = []
        run_suite(TINY, only=["exact_match"], progress=seen.append)
        assert seen == [
            "exact_match",
            "observability probe",
            "health probe (guarantee doctor)",
            "durability probe (WAL overhead + crash recovery)",
            "columnar probe (layout lanes + oracle)",
            "profiler probe (cost-profiler overhead)",
        ]


class TestDeriveMetrics:
    def _result(self, name, best, counters=None):
        return BenchResult(
            name=name,
            description=name,
            ops=1,
            repeats=1,
            warmup=0,
            samples=[best],
            counters=counters or {},
        )

    def test_speedups(self):
        derived = derive_metrics([
            self._result("insert", 0.9),
            self._result("bulk_load", 0.3),
            self._result("range", 0.5, {"pages_visited": 7, "records_found": 3}),
        ])
        assert derived == {"bulk_load_speedup": pytest.approx(3.0)}

    def test_partial_suites_skip_metrics(self):
        assert derive_metrics([self._result("insert", 1.0)]) == {}


class TestRenderText:
    def test_report_mentions_cases_and_derived(self, suite_result):
        text = render_text(suite_result)
        for result in suite_result.results:
            assert result.name in text
        assert "bulk_load_speedup" in text

    def test_baseline_comparison_section(self, suite_result):
        text = render_text(suite_result, baseline=suite_result)
        assert "vs baseline" in text
        assert "1.00x" in text

    def test_observability_block(self, suite_result):
        obs = suite_result.probes["observability"]
        assert obs["overhead"]["disabled_us_per_op"] > 0
        assert obs["overhead"]["ring_us_per_op"] > 0
        assert obs["metrics"]["descent.nodes_visited"]["count"] > 0
        text = render_text(suite_result)
        assert "observability probe" in text
        assert "tracer disabled (no subscribers)" in text
        assert "buffer.hit_ratio" in text


def _with_health(result, **overrides):
    """A shallow copy of a SuiteResult with its health block overridden."""
    import copy

    clone = copy.copy(result)
    clone.probes = copy.deepcopy(result.probes)
    clone.probes["health"].update(overrides)
    return clone


class TestHealthBlock:
    def test_suite_result_carries_health(self, suite_result):
        health = suite_result.probes["health"]
        assert health["ok"] is True
        assert health["audit_clean"] is True
        assert health["verdicts"] == {
            "occupancy": "ok",
            "height": "ok",
            "no_cascade": "ok",
        }
        assert health["ops_applied"] >= health["n_points"]
        assert health["overhead"]["monitor_overhead_ratio"] > 0
        assert health["timeseries"]["ops"]

    def test_render_includes_doctor_block(self, suite_result):
        text = render_text(suite_result)
        assert "guarantee doctor" in text
        assert "guarantee: occupancy" in text
        assert "audit (incremental vs sweep)" in text

    def test_no_regression_against_self(self, suite_result):
        assert probe_regressions(suite_result, suite_result) == []
        text = render_text(suite_result, baseline=suite_result)
        assert "no regressions" in text

    def test_verdict_downgrade_is_a_regression(self, suite_result):
        worse = _with_health(
            suite_result,
            verdicts={"occupancy": "violation", "height": "ok", "no_cascade": "ok"},
        )
        lines = probe_regressions(suite_result, worse)
        assert lines == ["occupancy: ok -> violation"]
        text = render_text(worse, baseline=suite_result)
        assert "guarantee REGRESSIONS" in text

    def test_audit_drift_is_a_regression(self, suite_result):
        drifted = _with_health(suite_result, audit_clean=False)
        assert any(
            "drift" in line
            for line in probe_regressions(suite_result, drifted)
        )

    def test_overhead_budget_breach_is_a_regression(self, suite_result):
        # Pin the baseline's measured ratio too: the regression line only
        # fires when the baseline was within budget, and the fixture's
        # real measurement can breach 1.03 on a loaded CI host.
        base = _with_health(
            suite_result,
            overhead={"monitor_overhead_ratio": 1.0},
        )
        heavy = _with_health(
            suite_result,
            overhead={"monitor_overhead_ratio": 1.5},
        )
        assert any(
            "overhead" in line
            for line in probe_regressions(base, heavy)
        )

    def test_missing_health_blocks_compare_clean(self, suite_result):
        legacy = _with_health(suite_result)
        del legacy.probes["health"]
        assert probe_regressions(legacy, suite_result) == []
        assert probe_regressions(suite_result, legacy) == []
