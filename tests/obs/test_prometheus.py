"""Tests for Prometheus exposition and its lint."""

import random

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    lint_prometheus,
    to_prometheus,
)


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("ops.total").inc(42)
    registry.gauge("buffer.hit_ratio").set(0.875)
    hist = registry.histogram("descent.nodes")
    for value in (1, 1, 3, 5, 9, 20):
        hist.observe(value)
    return registry


class TestExposition:
    def test_counter_exposes_with_total_suffix(self):
        text = to_prometheus(sample_registry())
        assert "# TYPE repro_ops_total_total counter" in text
        assert "repro_ops_total_total 42" in text

    def test_gauge_exposes_value(self):
        text = to_prometheus(sample_registry())
        assert "repro_buffer_hit_ratio 0.875" in text

    def test_unset_gauge_is_omitted(self):
        registry = MetricsRegistry()
        registry.gauge("never.set")
        text = to_prometheus(registry)
        assert "never_set" not in text

    def test_histogram_buckets_cumulative_with_inf(self):
        text = to_prometheus(sample_registry())
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_descent_nodes_bucket")
        ]
        counts = [int(line.split()[-1]) for line in lines]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in lines[-1]
        assert counts == [2, 3, 4, 5, 6, 6]  # edges 1, 3, 5, 9, 20, +Inf
        assert counts[-1] == 6
        assert "repro_descent_nodes_count 6" in text
        assert "repro_descent_nodes_sum 39" in text

    def test_names_are_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("trace.ring.dropped").inc()
        text = to_prometheus(registry, namespace="bv")
        assert "bv_trace_ring_dropped_total 1" in text

    def test_deterministic_order(self):
        assert to_prometheus(sample_registry()) == to_prometheus(
            sample_registry()
        )


class TestPromLint:
    def test_clean_exposition_passes(self):
        assert lint_prometheus(to_prometheus(sample_registry())) == []

    def test_flags_malformed_sample_line(self):
        problems = lint_prometheus("repro_ops_total\n")
        assert problems

    def test_flags_duplicate_sample(self):
        text = "repro_x 1\nrepro_x 2\n"
        assert any("repeat" in p or "duplicate" in p.lower()
                   for p in lint_prometheus(text))

    def test_flags_non_cumulative_histogram(self):
        text = "\n".join([
            '# HELP repro_h x (histogram)',
            '# TYPE repro_h histogram',
            'repro_h_bucket{le="1"} 5',
            'repro_h_bucket{le="2"} 3',
            'repro_h_bucket{le="+Inf"} 5',
            'repro_h_sum 9',
            'repro_h_count 5',
        ])
        assert lint_prometheus(text)

    def test_flags_le_bounds_out_of_order(self):
        text = "\n".join([
            '# HELP repro_h x (histogram)',
            '# TYPE repro_h histogram',
            'repro_h_bucket{le="2"} 5',
            'repro_h_bucket{le="1"} 5',
            'repro_h_bucket{le="+Inf"} 5',
            'repro_h_sum 9',
            'repro_h_count 5',
        ])
        assert any("strictly increase" in p for p in lint_prometheus(text))

    def test_flags_repeated_le_bound(self):
        text = "\n".join([
            '# HELP repro_h x (histogram)',
            '# TYPE repro_h histogram',
            'repro_h_bucket{le="1"} 5',
            'repro_h_bucket{le="1.0"} 5',
            'repro_h_bucket{le="+Inf"} 5',
            'repro_h_sum 9',
            'repro_h_count 5',
        ])
        assert any("strictly increase" in p for p in lint_prometheus(text))

    def test_flags_missing_inf_bucket(self):
        text = "\n".join([
            '# HELP repro_h x (histogram)',
            '# TYPE repro_h histogram',
            'repro_h_bucket{le="1"} 5',
            'repro_h_sum 9',
            'repro_h_count 5',
        ])
        assert lint_prometheus(text)

    def test_profiler_registry_exposition_is_clean(self, unit2):
        from repro.core.tree import BVTree
        from repro.obs.profile import OpProfiler
        from tests.conftest import make_points

        tree = BVTree(unit2, data_capacity=8, fanout=8)
        points = make_points(150, 2, seed=3)
        tree.bulk_load(
            [(p, i) for i, p in enumerate(points)], replace=True
        )
        registry = MetricsRegistry()
        profiler = OpProfiler(tree, registry=registry).attach()
        for point in points[:30]:
            tree.get(point)
        tree.range_query((0.1, 0.1), (0.6, 0.6))
        tree.insert((0.42, 0.24), None, replace=True)
        profiler.flush()
        assert lint_prometheus(to_prometheus(registry)) == []


class TestObserveMany:
    def test_matches_sequential_observe(self):
        rng = random.Random(17)
        values = [rng.uniform(0, 600) for _ in range(500)]
        one = Histogram("a")
        for value in values:
            one.observe(value)
        many = Histogram("b")
        many.observe_many(values)
        assert many.counts == one.counts
        assert many.count == one.count
        assert many.total == pytest.approx(one.total)

    def test_bound_ties_match(self):
        """Values equal to a bucket edge land identically both ways."""
        values = [1.0, 1.0, 2.0, 64.0, 66.0, 66.0, 65.0, 0.0]
        one = Histogram("a")
        for value in values:
            one.observe(value)
        many = Histogram("b")
        many.observe_many(values)
        assert many.counts == one.counts == {
            0.0: 1, 1.0: 2, 2.0: 1, 64.0: 1, 66.0: 3
        }

    def test_empty_batch_is_noop(self):
        hist = Histogram("a")
        hist.observe_many([])
        assert hist.count == 0
        assert hist.counts == {}

    def test_incremental_batches_accumulate(self):
        hist = Histogram("a")
        hist.observe_many([0.5, 2.0])
        hist.observe_many([2.0, 9.0])
        assert hist.count == 4
        assert hist.counts == {0.5: 1, 2.0: 2, 9.0: 1}
