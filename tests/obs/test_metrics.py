"""Tests for the metrics instruments, registry and trace-fed sink."""

import pytest

from repro.errors import ReproError
from repro.obs.events import (
    DATA_SPLIT,
    DESCENT_STEP,
    GUARD_HIT,
    OP_BEGIN,
    OP_END,
    PAGE_READ,
    TraceEvent,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    TimeSeriesSink,
    bucket_edge,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("ops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.to_dict() == {"type": "counter", "value": 5}

    def test_rejects_decrease(self):
        with pytest.raises(ReproError, match="cannot decrease"):
            Counter("ops").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("ratio")
        gauge.set(0.25)
        gauge.set(0.75)
        assert gauge.to_dict() == {"type": "gauge", "value": 0.75}

    def test_unset_gauge_reads_none(self):
        """Empty-state contract: never-set is distinguishable from 0.0."""
        gauge = Gauge("ratio")
        assert gauge.value is None
        assert gauge.to_dict() == {"type": "gauge", "value": None}
        gauge.set(0.0)
        assert gauge.value == 0.0


class TestHistogram:
    def test_buckets_inclusive_upper_bounds(self):
        """A value equal to an edge lands in that edge's bucket."""
        hist = Histogram("h")
        for value in (1, 2, 2, 3, 9):
            hist.observe(value)
        assert hist.counts == {1.0: 1, 2.0: 2, 3.0: 1, 9.0: 1}
        assert hist.count == 5
        assert hist.total == 17.0
        assert hist.mean == pytest.approx(3.4)

    def test_small_integers_are_edges_of_their_own(self):
        assert [bucket_edge(i) for i in range(65)] == [
            float(i) for i in range(65)
        ]
        assert bucket_edge(65) == 66.0  # above 64: two-wide buckets

    def test_edges_are_log_linear(self):
        # 32 equal buckets per power of two: width 2**(e - 6).
        assert bucket_edge(100.0) == 100.0
        assert bucket_edge(100.5) == 102.0
        assert bucket_edge(1_000.0) == 1_008.0
        assert bucket_edge(0.1) == 0.1015625

    def test_zero_has_its_own_bucket(self):
        hist = Histogram("h")
        hist.observe(0)
        hist.observe(5e-324)  # the smallest positive float
        assert hist.counts == {0.0: 1, 5e-324: 1}
        assert hist.quantile(0.5) == 0.0

    def test_empty_mean_is_none(self):
        """Empty-state contract: no observations means no mean."""
        hist = Histogram("h")
        assert hist.mean is None
        assert hist.to_dict()["mean"] is None

    def test_quantile_empty_is_none(self):
        assert Histogram("h").quantile(0.5) is None

    def test_quantile_bucket_upper_bounds(self):
        hist = Histogram("h")
        for value in (1, 1, 2, 100.5):
            hist.observe(value)
        assert hist.quantile(0.0) == 1.0  # rank clamps to 1
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.75) == 2.0
        assert hist.quantile(1.0) == 102.0

    def test_quantile_of_a_large_value_is_an_edge(self):
        """No overflow bucket: any finite value has a quantile."""
        hist = Histogram("h")
        hist.observe(3e9)
        assert 3e9 <= hist.quantile(1.0) <= 3e9 * 33 / 32

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ReproError, match="quantile"):
            Histogram("h").quantile(1.5)

    def test_to_dict_shape(self):
        """Occupied buckets only, ascending edges."""
        hist = Histogram("h")
        hist.observe(3)
        hist.observe(1_000)
        assert hist.to_dict() == {
            "type": "histogram",
            "buckets": [3.0, 1_008.0],
            "counts": [1, 1],
            "count": 2,
            "total": 1_003.0,
            "mean": 501.5,
        }


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_type_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ReproError, match="not a Gauge"):
            registry.gauge("a")
        with pytest.raises(ReproError, match="not a Histogram"):
            registry.histogram("a")

    def test_names_and_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.gauge("a").set(1.5)
        assert registry.names() == ["a", "b"]
        snap = registry.snapshot()
        assert snap["a"] == {"type": "gauge", "value": 1.5}
        assert snap["b"] == {"type": "counter", "value": 1}
        registry.reset()
        assert registry.names() == []


def span(op: int, inner: list[tuple[str, dict]]) -> list[TraceEvent]:
    """A synthetic operation span with ``inner`` events, seq-stamped later."""
    events = [(OP_BEGIN, {"name": "get"})] + inner + [(OP_END, {"name": "get"})]
    return [
        TraceEvent(seq=0, op=op, kind=kind, fields=fields)
        for kind, fields in events
    ]


class TestMetricsSink:
    def test_counts_every_kind(self):
        sink = MetricsSink()
        for event in span(1, [(PAGE_READ, {"page": 1, "physical": True})]):
            sink.emit(event)
        snap = sink.registry.snapshot()
        assert snap["events.op_begin"]["value"] == 1
        assert snap["events.page_read"]["value"] == 1
        assert snap["events.op_end"]["value"] == 1

    def test_per_descent_histograms_observed_at_op_end(self):
        sink = MetricsSink()
        inner = [
            (DESCENT_STEP, {"level": 2}),
            (GUARD_HIT, {"level": 1}),
            (DESCENT_STEP, {"level": 1}),
        ]
        for event in span(1, inner):
            sink.emit(event)
        for event in span(2, [(DESCENT_STEP, {"level": 1})]):
            sink.emit(event)
        snap = sink.registry.snapshot()
        visited = snap["descent.nodes_visited"]
        assert visited["count"] == 2
        assert visited["total"] == 3.0
        assert visited["buckets"] == [1.0, 2.0]
        guards = snap["descent.guard_checks"]
        assert guards["count"] == 1
        assert guards["total"] == 1.0

    def test_span_without_descent_records_no_observation(self):
        sink = MetricsSink()
        for event in span(1, []):
            sink.emit(event)
        assert "descent.nodes_visited" not in sink.registry.snapshot()

    def test_split_fanout_from_moved_field(self):
        sink = MetricsSink()
        sink.emit(TraceEvent(1, 0, DATA_SPLIT, {"key": "0", "moved": 3}))
        sink.emit(TraceEvent(2, 0, DATA_SPLIT, {"key": "1"}))  # no moved
        snap = sink.registry.snapshot()
        assert snap["split.fanout"]["count"] == 1
        assert snap["split.fanout"]["total"] == 3.0

    def test_hit_ratio_gauge(self):
        sink = MetricsSink()
        reads = [True, False, False, True]  # physical flags
        for i, physical in enumerate(reads):
            sink.emit(
                TraceEvent(i + 1, 0, PAGE_READ, {"page": i, "physical": physical})
            )
        snap = sink.registry.snapshot()
        assert snap["buffer.hit_ratio"]["value"] == pytest.approx(0.5)


class TestTimeSeriesSink:
    def test_rejects_bad_parameters(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError, match="every"):
            TimeSeriesSink(registry, every=0)
        with pytest.raises(ReproError, match="max_samples"):
            TimeSeriesSink(registry, every=1, max_samples=1)

    def test_columnar_shape_shares_ops_length(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        series = TimeSeriesSink(registry, every=2)
        for i in range(6):
            gauge.set(float(i))
            series.tick()
        assert series.ops == [2, 4, 6]
        assert series.columns["g"] == [1.0, 3.0, 5.0]

    def test_op_end_events_drive_sampling(self):
        registry = MetricsRegistry()
        registry.counter("c")
        series = TimeSeriesSink(registry, every=1)
        for i, kind in enumerate([OP_BEGIN, OP_END, PAGE_READ, OP_END]):
            series.emit(TraceEvent(seq=i, op=1, kind=kind, fields={}))
        assert series.ops == [1, 2]  # only op_end ticks

    def test_late_metric_backfills_none_both_ways(self):
        registry = MetricsRegistry()
        early = registry.gauge("early")
        early.set(1.0)
        series = TimeSeriesSink(registry, every=1)
        series.tick()
        late = registry.gauge("late")
        late.set(2.0)
        series.tick()
        assert series.columns["early"] == [1.0, 1.0]
        assert series.columns["late"] == [None, 2.0]

    def test_histogram_contributes_count_and_mean_columns(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        series = TimeSeriesSink(registry, every=1)
        series.tick()  # empty histogram: count 0, mean None
        hist.observe(3)
        hist.observe(5)
        series.tick()
        assert series.columns["h.count"] == [0, 2]
        assert series.columns["h.mean"] == [None, 4.0]

    def test_prepare_runs_before_each_sample(self):
        registry = MetricsRegistry()
        calls = []

        def prepare(reg):
            calls.append(reg)
            reg.gauge("fresh").set(len(calls))

        series = TimeSeriesSink(registry, every=1, prepare=prepare)
        series.tick()
        series.tick()
        assert calls == [registry, registry]
        assert series.columns["fresh"] == [1, 2]

    def test_compaction_halves_samples_and_doubles_stride(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        series = TimeSeriesSink(registry, every=1, max_samples=4)
        for _ in range(5):
            counter.inc()
            series.tick()
        # Fifth sample trips compaction: every other sample kept
        # (newest included), stride doubled.
        assert series.every == 2
        assert len(series.ops) <= 4
        assert series.ops[-1] == 5
        # The counter bumps once per tick, so its column tracks ops.
        assert series.columns["c"] == series.ops
        assert all(len(col) == len(series.ops) for col in series.columns.values())

    @pytest.mark.parametrize(
        "ticks, expected", [(6, [2, 4, 6]), (7, [2, 4, 6, 7]), (0, [0])]
    )
    def test_sample_end_records_the_end_state_once(self, ticks, expected):
        registry = MetricsRegistry()
        series = TimeSeriesSink(registry, every=2)
        for _ in range(ticks):
            series.tick()
        series.sample_end()
        series.sample_end()
        assert series.ops == expected

    def test_to_dict_round_trip_shape(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(7.0)
        series = TimeSeriesSink(registry, every=1)
        series.tick()
        data = series.to_dict()
        assert data["type"] == "timeseries"
        assert data["every"] == 1
        assert data["ops"] == [1]
        assert data["metrics"] == {"g": [7.0]}
