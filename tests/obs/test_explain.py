"""Tests for query EXPLAIN: reports, dispatch, and tracer restoration."""

import json

import pytest

from repro.core.tree import BVTree
from repro.errors import GeometryError, ReproError
from repro.obs.explain import ExplainReport, _fold
from repro.obs.sinks import RingSink
from tests.conftest import make_points

POINTS = make_points(400, 2, seed=21)


@pytest.fixture
def tree(unit2):
    t = BVTree(unit2, data_capacity=4, fanout=4)
    for i, p in enumerate(POINTS):
        t.insert(p, i, replace=True)
    return t


class TestExplainPoint:
    def test_found_report(self, tree):
        rep = tree.explain(POINTS[0])
        assert rep.kind == "point"
        assert rep.query == {"point": list(POINTS[0])}
        assert rep.result["found"] is True
        assert rep.result["value"] == repr(0)
        # Paper §6: an exact match touches exactly height + 1 pages.
        assert rep.pages_touched == tree.height + 1
        assert len(rep.steps) == tree.height
        assert rep.events > 0
        assert rep.truncated is False

    def test_missing_point_still_full_descent(self, tree):
        rep = tree.explain((0.9911, 0.0123))
        assert rep.result == {"found": False}
        assert rep.pages_touched == tree.height + 1

    def test_steps_record_descent_details(self, tree):
        rep = tree.explain(POINTS[7])
        for step in rep.steps:
            assert step["via"] in ("guard", "native")
            assert step["guard_set"] >= 0
        assert sum(rep.visited_by_level.values()) == len(rep.steps)


class TestExplainRange:
    def test_report_matches_query(self, tree):
        lows, highs = (0.2, 0.2), (0.45, 0.45)
        rep = tree.explain(rect=(lows, highs))
        result = tree.range_query(lows, highs)
        assert rep.kind == "range"
        assert rep.result["records"] == len(result)
        assert rep.result["pages_visited"] == result.pages_visited
        assert rep.result["data_pages_visited"] == result.data_pages_visited
        assert rep.visits and rep.prunes
        assert rep.pages_touched > 0

    def test_prunes_carry_the_cut_off_dimension(self, tree):
        rep = tree.explain(rect=((0.0, 0.0), (0.1, 0.1)))
        assert any("dim" in prune for prune in rep.prunes)


class TestExplainKnn:
    def test_report(self, tree):
        rep = tree.explain(knn=(0.5, 0.5), k=3)
        assert rep.kind == "knn"
        assert rep.query == {"point": [0.5, 0.5], "k": 3}
        assert rep.result["neighbours"] == 3
        assert rep.result["max_distance"] is not None
        assert rep.visits
        assert rep.pages_touched > 0


class TestDispatch:
    def test_requires_exactly_one_query(self, tree):
        with pytest.raises(ReproError, match="exactly one"):
            tree.explain()
        with pytest.raises(ReproError, match="exactly one"):
            tree.explain(POINTS[0], knn=POINTS[1])


class TestCaptureHygiene:
    def test_tracer_restored_after_explain(self, tree):
        saved = tree.tracer
        tree.explain(POINTS[3])
        assert tree.tracer is saved
        assert tree.store.tracer is saved
        assert saved.enabled is False

    def test_tracer_restored_when_query_raises(self, tree):
        saved = tree.tracer
        with pytest.raises(GeometryError):
            tree.explain(rect=((0.0,), (1.0,)))
        assert tree.tracer is saved
        assert tree.store.tracer is saved

    def test_caller_sink_sees_nothing_from_explain(self, tree):
        sink = RingSink()
        tree.tracer.subscribe(sink)
        try:
            tree.explain(POINTS[5])
        finally:
            tree.tracer.unsubscribe(sink)
        # The capture tracer replaced ours for the duration, so the
        # explained query must not leak into the caller's capture.
        assert len(sink) == 0


class TestReportRendering:
    def test_to_dict_is_json_ready(self, tree):
        rep = tree.explain(rect=((0.1, 0.1), (0.6, 0.6)))
        encoded = json.loads(json.dumps(rep.to_dict()))
        assert encoded["kind"] == "range"
        assert encoded["pages_touched"] == rep.pages_touched

    def test_render_text_point(self, tree):
        text = tree.explain(POINTS[0]).render_text()
        assert text.startswith("EXPLAIN point")
        assert "pages touched" in text
        assert "descent:" in text

    def test_render_text_truncates_prune_rows(self, tree):
        rep = tree.explain(rect=((0.0, 0.0), (0.05, 0.05)))
        assert len(rep.prunes) > 1
        text = rep.render_text(max_rows=1)
        assert "more" in text

    def test_fold_marks_truncated_capture(self):
        rep = _fold(
            ExplainReport(kind="point", query={}, pages_touched=0), [], 3
        )
        assert rep.truncated is True
