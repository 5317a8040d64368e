"""Tests for the guarantee health evaluator.

The evaluator's one hard requirement: its occupancy verdict must agree
with :func:`repro.core.checker.check_tree`'s invariant 6 — the checker
raising and the doctor saying ``ok``/``warning`` (or vice versa) would
be two oracles disagreeing about the same tree.  The agreement tests
here surgically underfill a page so both sides see the same pathology,
with and without the deferred-escape counters set.
"""

import pytest

from repro.core.checker import check_tree
from repro.core.tree import BVTree
from repro.errors import ReproError, TreeInvariantError
from repro.obs import (
    GuaranteeMonitor,
    HealthThresholds,
    evaluate,
    height_bound,
)
from repro.obs.health import OK, VIOLATION, WARNING, HealthReport
from repro.obs.health import HealthFinding
from repro.obs.report import run_doctor
from tests.conftest import make_points


def grown(unit2, n=300, seed=17, **kwargs):
    kwargs.setdefault("data_capacity", 8)
    kwargs.setdefault("fanout", 8)
    tree = BVTree(unit2, **kwargs)
    for i, point in enumerate(make_points(n, 2, seed=seed)):
        tree.insert(point, i, replace=True)
    return tree


def underfill_data_page(tree):
    """Strip a non-root data page below the policy minimum, in place.

    Returns the page id.  ``tree.count`` is adjusted so invariant 5
    still holds; only invariant 6 (occupancy) is broken.
    """
    minimum = tree.policy.min_data_occupancy()
    for page_id in tree.store.page_ids():
        content = tree.store.peek(page_id)
        if page_id == tree.root_page or getattr(content, "index_level", 0):
            continue
        if len(content) >= minimum:
            while len(content) >= minimum:
                content.delete(next(iter(content.paths())))
                tree.count -= 1
            return page_id
    raise AssertionError("no data page was eligible for underfilling")


class TestHeightBound:
    def test_small_populations_need_no_index(self):
        assert height_bound(0, 2, 2) == 1
        assert height_bound(2, 2, 2) == 1  # one page
        assert height_bound(0, 2, 2, slack=0) == 0

    def test_grows_logarithmically(self):
        b1k = height_bound(1_000, 10, 2, slack=0)
        b1m = height_bound(1_000_000, 10, 2, slack=0)
        assert b1m - b1k == pytest.approx(10, abs=1)  # +2^10 factor

    def test_rejects_degenerate_minima(self):
        with pytest.raises(ReproError, match="positive"):
            height_bound(100, 0, 2)


class TestEvaluateHealthyTree:
    def test_all_three_guarantees_pass(self, unit2):
        tree = grown(unit2)
        with GuaranteeMonitor(tree) as monitor:
            report = evaluate(monitor)
        assert report.ok
        assert report.verdicts == {
            "occupancy": OK,
            "height": OK,
            "no_cascade": OK,
        }
        assert not report.violations

    def test_per_level_occupancy_findings(self, unit2):
        tree = grown(unit2)
        with GuaranteeMonitor(tree) as monitor:
            report = evaluate(monitor)
            levels = sorted(monitor.levels)
        occ = [f for f in report.findings if f.guarantee == "occupancy"]
        assert sorted(f.level for f in occ) == levels

    def test_height_slack_zero_can_flip_verdict(self, unit2):
        """Tightening the slack only ever worsens the height verdict."""
        tree = grown(unit2, n=500, data_capacity=4, fanout=4)
        with GuaranteeMonitor(tree) as monitor:
            default = evaluate(monitor)
            strict = evaluate(
                monitor, HealthThresholds(height_slack=0)
            )
        rank = {OK: 0, WARNING: 1, VIOLATION: 2}
        assert rank[strict.verdicts["height"]] >= (
            rank[default.verdicts["height"]]
        )

    def test_explicit_split_chain_bound(self, unit2):
        tree = BVTree(unit2, data_capacity=8, fanout=8)
        with GuaranteeMonitor(tree) as monitor:
            for i, point in enumerate(make_points(300, 2, seed=17)):
                tree.insert(point, i, replace=True)
            assert monitor.max_splits_per_op > 0
            report = evaluate(
                monitor, HealthThresholds(max_split_chain=0)
            )
        assert report.verdicts["no_cascade"] == VIOLATION


class TestCheckerAgreement:
    """Doctor occupancy verdict == checker invariant 6, both ways."""

    def test_underfull_page_without_escape_both_flag(self, unit2):
        tree = grown(unit2)
        assert tree.stats.deferred_splits == 0
        assert tree.stats.deferred_merges == 0
        page_id = underfill_data_page(tree)
        with pytest.raises(TreeInvariantError, match="minimum"):
            check_tree(tree, check_occupancy=True)
        with GuaranteeMonitor(tree) as monitor:  # seeds post-surgery
            report = evaluate(monitor)
        assert report.verdicts["occupancy"] == VIOLATION
        assert not report.ok
        [finding] = [f for f in report.violations]
        assert page_id in finding.pages

    def test_underfull_page_with_escape_both_tolerate(self, unit2):
        tree = grown(unit2)
        underfill_data_page(tree)
        tree.stats.deferred_merges += 1  # the documented escape hatch
        check_tree(tree, check_occupancy=True)  # must not raise
        with GuaranteeMonitor(tree) as monitor:
            report = evaluate(monitor)
        assert report.verdicts["occupancy"] == WARNING
        assert report.ok  # warnings do not fail the doctor
        [finding] = report.warnings
        assert "deferred" in finding.message

    def test_occupancy_skip_matches_checker_flag(self, unit2):
        """check_occupancy=False is the checker-side opt-out; the doctor
        has no such switch, so a clean tree satisfies both regardless."""
        tree = grown(unit2)
        check_tree(tree, check_occupancy=False)
        check_tree(tree, check_occupancy=True)
        with GuaranteeMonitor(tree) as monitor:
            assert evaluate(monitor).verdicts["occupancy"] == OK


class TestReportShape:
    def test_verdicts_take_worst_severity(self):
        report = HealthReport(
            findings=[
                HealthFinding("occupancy", OK, "fine", level=0),
                HealthFinding("occupancy", WARNING, "escaped", level=1),
                HealthFinding("height", VIOLATION, "too tall"),
            ]
        )
        assert report.verdicts["occupancy"] == WARNING
        assert report.verdicts["height"] == VIOLATION
        assert report.verdicts["no_cascade"] == OK
        assert not report.ok
        assert len(report.violations) == 1
        assert len(report.warnings) == 1

    def test_to_dict_round_trip(self):
        import json

        report = HealthReport(
            findings=[
                HealthFinding(
                    "occupancy",
                    VIOLATION,
                    "bad",
                    level=0,
                    pages=(3, 5),
                    observed=1,
                    bound=2,
                )
            ]
        )
        data = report.to_dict()
        json.dumps(data)
        assert data["ok"] is False
        assert data["findings"][0]["pages"] == [3, 5]

    def test_finding_to_dict_omits_absent_fields(self):
        data = HealthFinding("height", OK, "fine").to_dict()
        assert set(data) == {"guarantee", "severity", "message"}


class TestDoctorSeries:
    @pytest.mark.parametrize(
        "inserts, expected", [(40, [20, 40]), (50, [20, 40, 50])]
    )
    def test_series_ends_at_the_last_op_once(self, unit2, inserts, expected):
        tree = BVTree(unit2, data_capacity=8, fanout=8)
        ops = [
            ("insert", point, i)
            for i, point in enumerate(make_points(inserts, 2, seed=5))
        ]
        result = run_doctor(tree, ops, sample_every=20)
        assert result.timeseries["ops"] == expected
