"""Tests for the ``repro top`` dashboard engine."""

import json

import pytest

from repro.core.tree import BVTree
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, lint_prometheus
from repro.obs.profile import SlowOpLog
from repro.obs.top import render_top_frame, run_top
from repro.storage import BufferPool, PageStore
from tests.conftest import make_points


def build(unit2, n=150, buffered=False):
    store = BufferPool(PageStore(), capacity=64) if buffered else None
    tree = BVTree(unit2, data_capacity=8, fanout=8, store=store)
    points = make_points(n, 2, seed=31)
    tree.bulk_load([(p, i) for i, p in enumerate(points)], replace=True)
    return tree, points


def workload(points):
    ops = []
    for i, point in enumerate(points[:60]):
        ops.append(("get", point))
        if i % 10 == 0:
            ops.append(("range", (0.1, 0.1), (0.5, 0.5)))
        if i % 15 == 0:
            ops.append(("knn", point, 2))
        if i % 7 == 0:
            ops.append(("insert", (0.001 + i / 1000.0, 0.999 - i / 1000.0)))
    return ops


class TestRunTopOnce:
    def test_drives_stream_and_reports(self, unit2):
        tree, points = build(unit2)
        ops = workload(points)
        result = run_top(tree, ops, once=True)
        assert result.ops_applied == len(ops)
        assert result.frames == 1
        assert result.exit_code == 0
        assert result.health.ok
        assert result.profile["kinds"]["get"]["ops"] == 60
        assert "insert" in result.profile["kinds"]

    def test_frame_text_shows_profiles_and_verdicts(self, unit2):
        tree, points = build(unit2)
        frames = []
        result = run_top(
            tree, workload(points), once=True, emit=frames.append
        )
        assert len(frames) == 1
        text = frames[0]
        assert "repro top" in text
        assert "get" in text
        assert "guarantees:" in text
        assert "PASS" in text
        assert result.last_frame == text
        assert "\x1b" not in text  # once-mode frames carry no ANSI codes

    def test_tracer_restored_after_run(self, unit2):
        tree, points = build(unit2)
        run_top(tree, workload(points), once=True)
        assert tree.tracer.profiler is None
        assert tree.tracer.subscribers == ()
        assert not tree.tracer.structural

    def test_misses_surface_as_error_counts(self, unit2):
        tree, points = build(unit2)
        ops = [("get", points[0]), ("delete", (0.777123, 0.123777))]
        result = run_top(tree, ops, once=True)
        assert result.ops_applied == 2
        assert result.profile["kinds"]["delete"]["errors"] == 1

    def test_unknown_verb_raises(self, unit2):
        tree, _ = build(unit2)
        with pytest.raises(ReproError, match="insert/delete/get"):
            run_top(tree, [("compact",)], once=True)

    def test_rejects_nonpositive_refresh(self, unit2):
        tree, _ = build(unit2)
        with pytest.raises(ReproError, match="refresh"):
            run_top(tree, [], refresh=0.0)

    def test_buffer_hit_rate_shown_for_buffered_store(self, unit2):
        tree, points = build(unit2, buffered=True)
        frames = []
        run_top(
            tree,
            [("get", p) for p in points[:30]],
            once=True,
            emit=frames.append,
        )
        assert "buffer hit rate" in frames[0]


class TestArtifacts:
    def test_prom_out_is_lint_clean(self, unit2, tmp_path):
        tree, points = build(unit2)
        prom = tmp_path / "metrics.prom"
        registry = MetricsRegistry()
        run_top(
            tree,
            workload(points),
            once=True,
            registry=registry,
            prom_out=prom,
        )
        text = prom.read_text()
        assert lint_prometheus(text) == []
        assert "repro_profile_get_latency_us_count" in text

    def test_metrics_out_streams_snapshots(self, unit2, tmp_path):
        tree, points = build(unit2)
        metrics = tmp_path / "metrics.jsonl"
        result = run_top(
            tree,
            [("get", p) for p in points[:50]],
            once=True,
            metrics_out=metrics,
            metrics_every=20,
        )
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        # two periodic snapshots plus the final one
        assert [line["ops"] for line in lines][:2] == [20, 40]
        assert lines[-1]["metrics"]["profile.get.latency_us"]["count"] == 50
        assert result.registry_snapshot

    def test_slow_log_integration(self, unit2, tmp_path):
        tree, points = build(unit2)
        log = SlowOpLog(tmp_path / "slow.jsonl", pages=1)
        result = run_top(
            tree,
            [("get", points[0])],
            once=True,
            slow_log=log,
        )
        assert result.slow_ops == 1
        entry = json.loads(
            (tmp_path / "slow.jsonl").read_text().splitlines()[0]
        )
        assert entry["kind"] == "get"
        assert entry["explain"]["pages_touched"] == tree.height + 1
        assert "slow ops: 1 captured" in result.last_frame

    def test_to_dict_round_trip(self, unit2):
        tree, points = build(unit2)
        result = run_top(tree, workload(points), once=True)
        data = result.to_dict()
        assert data["ops_applied"] == result.ops_applied
        assert data["exit_code"] == 0
        assert data["health"]["ok"] is True
        assert json.dumps(data)  # JSON-serialisable end to end


class TestRenderFrame:
    def test_renders_minimal_data(self):
        data = {
            "points": 10,
            "height": 1,
            "layout": "object",
            "ops_applied": 5,
            "elapsed_s": 0.5,
            "kinds": [
                {
                    "kind": "get",
                    "ops": 5,
                    "ops_per_s": 10.0,
                    "p50_us": 12.0,
                    "p99_us": 50.0,
                    "mean_us": 20.0,
                    "pages_mean": 2.0,
                    "errors": 0,
                }
            ],
            "buffer_hit_ratio": None,
            "wal_fsyncs": None,
            "verdicts": {"balance": "ok"},
            "max_splits_per_op": 0,
            "slow": None,
        }
        text = render_top_frame(data)
        assert "10 points" in text
        assert "balance PASS" in text
        assert "ops/s" in text
