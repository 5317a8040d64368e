"""Tests for the per-operation cost profiler and the slow-op log."""

import json

import pytest

from repro.core.tree import BVTree
from repro.errors import KeyNotFoundError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import GET_BATCH, OpProfiler, SlowOpLog
from repro.obs.sinks import RingSink
from tests.conftest import make_points


def build(space, n=200, data_capacity=8, fanout=8, layout="columnar"):
    tree = BVTree(
        space, data_capacity=data_capacity, fanout=fanout, layout=layout
    )
    points = make_points(n, space.ndim, seed=11)
    tree.bulk_load([(p, i) for i, p in enumerate(points)], replace=True)
    return tree, points


class TestDirectReadPath:
    def test_counts_every_get(self, unit2):
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        for point in points[:50]:
            tree.get(point)
        profile = profiler.profile("get")
        assert profile.ops == 50
        assert profile.errors.value == 0

    def test_get_pages_is_descent_depth(self, unit2):
        """Every exact-match descent reads exactly height + 1 pages."""
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        for point in points[:20]:
            tree.get(point)
        profile = profiler.profile("get")
        assert profile.pages.mean == pytest.approx(tree.height + 1)

    def test_samples_buffer_until_read(self, unit2):
        """Hot-path gets land in the raw buffer; read surfaces fold it."""
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        n = min(30, GET_BATCH - 1)
        for point in points[:n]:
            tree.get(point)
        assert len(profiler._get_raw) == n
        assert profiler.profile("get").ops == n  # profile() flushes
        assert profiler._get_raw == []

    def test_batch_overflow_folds_inline(self, unit2):
        tree, points = build(unit2, n=64)
        profiler = OpProfiler(tree).attach()
        lookups = 0
        while lookups <= GET_BATCH:
            for point in points:
                tree.get(point)
            lookups += len(points)
        assert len(profiler._get_raw) < GET_BATCH
        assert profiler.profile("get").ops == lookups

    def test_counts_range_and_knn(self, unit2):
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        tree.range_query((0.1, 0.1), (0.4, 0.4))
        tree.range_query((0.5, 0.5), (0.9, 0.9))
        tree.nearest(points[0], k=3)
        assert profiler.profile("range").ops == 2
        assert profiler.profile("knn").ops == 1
        assert profiler.profile("range").pages.total > 0

    def test_miss_counts_as_error_not_op(self, unit2):
        tree, _ = build(unit2)
        profiler = OpProfiler(tree).attach()
        with pytest.raises(KeyNotFoundError):
            tree.get((0.123456, 0.654321))
        profile = profiler.profile("get")
        assert profile.errors.value == 1
        assert profile.ops == 0

    def test_latency_histogram_latencies_positive(self, unit2):
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        for point in points[:10]:
            tree.get(point)
        profile = profiler.profile("get")
        assert profile.latency_us.total > 0
        assert profile.max_latency_us.value > 0


class TestTapUpdatePath:
    def test_counts_inserts_with_io(self, unit2):
        tree, _ = build(unit2)
        profiler = OpProfiler(tree).attach()
        extra = make_points(40, 2, seed=23)
        for i, point in enumerate(extra):
            tree.insert(point, i, replace=True)
        profile = profiler.profile("insert")
        assert profile.ops == 40
        assert profile.pages_written.value > 0
        assert profile.pages.total > 0

    def test_cascade_depth_matches_split_counters(self, unit2):
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        profiler = OpProfiler(tree).attach()
        before = tree.stats.snapshot()
        for i, point in enumerate(make_points(150, 2, seed=5)):
            tree.insert(point, i, replace=True)
        delta = tree.stats.delta(before)
        profile = profiler.profile("insert")
        cascade_total = profile.cascade.total
        assert cascade_total == delta.data_splits + delta.index_splits
        assert profile.max_cascade >= 1

    def test_delete_profiled(self, unit2):
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        for point in points[:15]:
            tree.delete(point)
        assert profiler.profile("delete").ops == 15

    def test_bulk_load_profiled(self, unit2):
        tree = BVTree(unit2, data_capacity=8, fanout=8)
        profiler = OpProfiler(tree).attach()
        points = make_points(120, 2, seed=9)
        tree.bulk_load([(p, i) for i, p in enumerate(points)], replace=True)
        profile = profiler.profile("bulk_load")
        assert profile.ops == 1
        assert profile.cascade is not None

    def test_read_kinds_have_no_cascade_histogram(self, unit2):
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        tree.get(points[0])
        assert profiler.profile("get").cascade is None


class TestSpanModeReads:
    def test_reads_under_full_sink_counted_once(self, unit2):
        """With a sink enabled reads open spans; the tap covers them."""
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        ring = RingSink(capacity=4096)
        tree.tracer.subscribe(ring)
        try:
            for point in points[:12]:
                tree.get(point)
            tree.range_query((0.2, 0.2), (0.6, 0.6))
        finally:
            tree.tracer.unsubscribe(ring)
        assert profiler.profile("get").ops == 12
        assert profiler.profile("range").ops == 1


class TestLifecycle:
    def test_attach_registers_both_hooks(self, unit2):
        tree, _ = build(unit2)
        profiler = OpProfiler(tree)
        assert tree.tracer.profiler is None
        profiler.attach()
        assert tree.tracer.profiler is profiler
        assert profiler in tree.tracer.subscribers

    def test_detach_restores_tracer(self, unit2):
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        tree.get(points[0])
        profiler.detach()
        assert tree.tracer.profiler is None
        assert profiler not in tree.tracer.subscribers
        assert not tree.tracer.structural
        # detach flushed the raw buffer: the profile is readable
        assert profiler.profiles["get"].ops == 1

    def test_attach_detach_idempotent(self, unit2):
        tree, _ = build(unit2)
        profiler = OpProfiler(tree)
        profiler.attach()
        profiler.attach()
        profiler.detach()
        profiler.detach()
        assert tree.tracer.profiler is None

    def test_context_manager(self, unit2):
        tree, points = build(unit2)
        with OpProfiler(tree) as profiler:
            tree.get(points[0])
        assert tree.tracer.profiler is None
        assert profiler.profiles["get"].ops == 1

    def test_detached_tree_pays_no_profiling(self, unit2):
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        profiler.detach()
        tree.get(points[0])
        assert "get" not in profiler.profiles or (
            profiler.profiles["get"].ops == 0
        )


class TestRegistryIntegration:
    def test_instruments_live_in_registry(self, unit2):
        tree, points = build(unit2)
        registry = MetricsRegistry()
        profiler = OpProfiler(tree, registry=registry).attach()
        tree.get(points[0])
        tree.insert((0.9991, 0.0002), None, replace=True)
        profiler.flush()
        snap = registry.snapshot()
        assert "profile.get.latency_us" in snap
        assert "profile.get.pages" in snap
        assert "profile.insert.cascade" in snap
        assert snap["profile.get.latency_us"]["count"] == 1

    def test_to_dict_summary(self, unit2):
        tree, points = build(unit2)
        profiler = OpProfiler(tree).attach()
        for point in points[:5]:
            tree.get(point)
        summary = profiler.to_dict()
        assert summary["layout"] == tree.layout
        assert summary["kinds"]["get"]["ops"] == 5
        assert summary["kinds"]["get"]["pages"]["mean"] == pytest.approx(
            tree.height + 1
        )


class TestSlowOpLog:
    def test_requires_a_threshold(self):
        with pytest.raises(ReproError, match="at least one threshold"):
            SlowOpLog()

    def test_rejects_nonpositive_keep(self):
        with pytest.raises(ReproError, match="keep"):
            SlowOpLog(latency_us=1.0, keep=0)

    def test_matches_uses_inclusive_thresholds(self):
        log = SlowOpLog(latency_us=100.0, pages=10)
        assert log.matches(100.0, 0)
        assert log.matches(0.0, 10)
        assert not log.matches(99.9, 9)

    def test_window_rotates_but_count_totals(self):
        log = SlowOpLog(latency_us=0.0, keep=3)
        for i in range(5):
            log.record({"kind": "get", "i": i})
        assert log.count == 5
        assert [r["i"] for r in log.records] == [2, 3, 4]
        assert log.last["i"] == 4

    def test_jsonl_file_round_trips(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        with SlowOpLog(path, latency_us=0.0) as log:
            log.record({"kind": "get", "latency_us": 12.5})
            log.record({"kind": "range", "latency_us": 250.0})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "get",
            "range",
        ]


class TestSlowOpCapture:
    def test_forced_slow_get_has_valid_explain(self, unit2, tmp_path):
        """A pages>=1 threshold makes every get slow; EXPLAIN attaches."""
        tree, points = build(unit2)
        path = tmp_path / "slow.jsonl"
        log = SlowOpLog(path, pages=1)
        profiler = OpProfiler(tree, slow_log=log).attach()
        tree.get(points[0])
        profiler.flush()
        assert log.count == 1
        entry = log.last
        assert entry["kind"] == "get"
        assert entry["pages"] == tree.height + 1
        assert entry["layout"] == tree.layout
        report = entry["explain"]
        assert report["pages_touched"] == tree.height + 1
        assert report["kind"] == "point"
        # the JSONL line carries the same record
        parsed = json.loads(path.read_text().splitlines()[-1])
        assert parsed["explain"]["pages_touched"] == tree.height + 1
        log.close()

    def test_slow_range_and_knn_explained(self, unit2):
        tree, points = build(unit2)
        log = SlowOpLog(latency_us=0.0)
        profiler = OpProfiler(tree, slow_log=log).attach()
        tree.range_query((0.1, 0.1), (0.5, 0.5))
        tree.nearest(points[3], k=2)
        kinds = [r["kind"] for r in log.records]
        assert kinds == ["range", "knn"]
        assert log.records[0]["explain"]["kind"] == "range"
        assert log.records[1]["explain"]["kind"] == "knn"
        assert log.records[1]["detail"]["k"] == 2

    def test_slow_insert_has_no_explain(self, unit2):
        tree, _ = build(unit2)
        log = SlowOpLog(latency_us=0.0)
        OpProfiler(tree, slow_log=log).attach()
        tree.insert((0.31337, 0.73331), "v", replace=True)
        entry = log.last
        assert entry["kind"] == "insert"
        assert "explain" not in entry

    def test_explain_can_be_disabled(self, unit2):
        tree, points = build(unit2)
        log = SlowOpLog(latency_us=0.0, explain_queries=False)
        OpProfiler(tree, slow_log=log).attach()
        tree.get(points[0])
        assert "explain" not in log.last

    def test_explain_rerun_not_profiled(self, unit2):
        """The EXPLAIN re-run must not inflate the profiles."""
        tree, points = build(unit2)
        log = SlowOpLog(pages=1)
        profiler = OpProfiler(tree, slow_log=log).attach()
        tree.get(points[0])
        assert profiler.profile("get").ops == 1
        assert log.count == 1
