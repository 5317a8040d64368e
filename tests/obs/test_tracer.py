"""Tests for the span-aware tracer, its subscriber routing and its
disabled-path guarantees."""

import pytest

from repro.errors import ReproError
from repro.obs.events import DATA_SPLIT, OP_BEGIN, OP_END, PAGE_READ, PAGE_WRITE
from repro.obs.metrics import MetricsSink, TimeSeriesSink
from repro.obs.monitor import GuaranteeMonitor
from repro.obs.profile import OpProfiler
from repro.obs.sinks import JsonlSink, RingSink
from repro.obs.tracer import READ_PATH_KINDS, Tracer
from repro.storage.durable.store import _OpSpanTap


class Recorder:
    """A subscriber that keeps what it is given and declares ``kinds``."""

    def __init__(self, kinds=None):
        self.kinds = kinds
        self.events = []

    def emit(self, event):
        self.events.append(event)


class TestEnablement:
    def test_default_has_no_subscribers(self):
        tracer = Tracer()
        assert tracer.enabled is False
        assert tracer.structural is False
        assert tracer.subscribers == ()

    def test_real_sink_enables_at_construction(self):
        tracer = Tracer(RingSink())
        assert tracer.enabled is True

    def test_disabled_emit_is_dropped(self):
        tracer = Tracer()
        tracer.emit(PAGE_READ, page=1)
        assert tracer.seq == 0

    def test_subscribe_enables_and_unsubscribe_disables(self):
        tracer = Tracer()
        sink = RingSink()
        tracer.subscribe(sink)
        assert tracer.enabled is True
        tracer.emit(PAGE_READ, page=1)
        tracer.unsubscribe(sink)
        assert tracer.enabled is False
        assert tracer.subscribers == ()
        assert len(sink) == 1

    def test_update_path_subscribers_leave_enabled_false(self):
        tracer = Tracer()
        tracer.subscribe(Recorder(frozenset({OP_BEGIN, OP_END})))
        tracer.subscribe(Recorder(frozenset({PAGE_WRITE, DATA_SPLIT})))
        assert tracer.structural is True
        assert tracer.enabled is False

    @pytest.mark.parametrize("kind", sorted(READ_PATH_KINDS))
    def test_any_read_path_kind_enables(self, kind):
        tracer = Tracer(Recorder(frozenset({kind})))
        assert tracer.enabled is True

    def test_shipped_update_subscribers_leave_enabled_false(self):
        tracer = Tracer()
        for subscriber in (
            GuaranteeMonitor,
            OpProfiler,
            TimeSeriesSink,
        ):
            tracer.subscribe(Recorder(subscriber.kinds))
        assert tracer.structural is True
        assert tracer.enabled is False

    def test_subscribing_twice_is_idempotent(self):
        recorder = Recorder()
        tracer = Tracer(recorder)
        tracer.subscribe(recorder)
        assert tracer.subscribers == (recorder,)
        tracer.emit(PAGE_READ, page=1)
        assert len(recorder.events) == 1

    def test_unsubscribing_a_stranger_is_a_no_op(self):
        recorder = Recorder()
        tracer = Tracer(recorder)
        tracer.unsubscribe(Recorder())
        assert tracer.subscribers == (recorder,)
        assert tracer.enabled is True


class TestRouting:
    def test_declared_kinds_only_beside_a_full_capture(self):
        ring = RingSink()
        spans = Recorder(frozenset({OP_BEGIN, OP_END}))
        tracer = Tracer(ring, spans)
        with tracer.operation("insert"):
            tracer.emit(PAGE_READ, page=1)
            tracer.emit(PAGE_WRITE, page=1)
            tracer.emit(DATA_SPLIT, key="0")
        assert [e.kind for e in spans.events] == [OP_BEGIN, OP_END]
        assert [e.kind for e in ring.events()] == [
            OP_BEGIN,
            PAGE_READ,
            PAGE_WRITE,
            DATA_SPLIT,
            OP_END,
        ]
        # Both subscribers see the same event objects, in stream order.
        assert spans.events == [ring.events()[0], ring.events()[-1]]

    def test_unwanted_kinds_build_no_event(self):
        spans = Recorder(frozenset({OP_END}))
        tracer = Tracer(spans)
        tracer.emit(PAGE_WRITE, page=1)
        assert tracer.seq == 0
        tracer.emit(OP_END, name="insert")
        assert tracer.seq == 1
        assert [e.seq for e in spans.events] == [1]

    def test_unknown_kinds_reach_only_full_captures(self):
        everything = Recorder()
        spans = Recorder(frozenset({OP_BEGIN}))
        tracer = Tracer(everything, spans)
        tracer.emit("future_kind", x=1)
        assert [e.kind for e in everything.events] == ["future_kind"]
        assert spans.events == []

    def test_unsubscribe_reroutes(self):
        ring = RingSink()
        spans = Recorder(frozenset({OP_END}))
        tracer = Tracer(ring, spans)
        tracer.unsubscribe(ring)
        tracer.emit(PAGE_READ, page=1)
        tracer.emit(OP_END, name="get")
        assert len(ring) == 0
        assert [e.kind for e in spans.events] == [OP_END]

    def test_every_shipped_subscriber_declares_kinds(self):
        for subscriber in (
            RingSink,
            JsonlSink,
            MetricsSink,
            TimeSeriesSink,
            GuaranteeMonitor,
            OpProfiler,
            _OpSpanTap,
        ):
            kinds = subscriber.kinds
            assert kinds is None or isinstance(kinds, frozenset), subscriber
            assert kinds is None or kinds, subscriber


class TestEmission:
    def test_seq_increases_monotonically(self):
        sink = RingSink()
        tracer = Tracer(sink)
        tracer.emit(PAGE_READ, page=1)
        tracer.emit(PAGE_READ, page=2)
        assert [event.seq for event in sink.events()] == [1, 2]
        assert tracer.seq == 2

    def test_events_outside_spans_carry_op_zero(self):
        sink = RingSink()
        tracer = Tracer(sink)
        tracer.emit(PAGE_READ, page=1)
        assert sink.events()[0].op == 0


class TestSpans:
    def test_disabled_span_is_shared_no_op(self):
        tracer = Tracer()
        span = tracer.operation("insert")
        assert span is tracer.operation("delete")
        with span as op:
            assert op == 0
        assert tracer.seq == 0

    def test_span_brackets_and_stamps_events(self):
        sink = RingSink()
        tracer = Tracer(sink)
        with tracer.operation("insert", point=[0.5, 0.5]) as op:
            tracer.emit(PAGE_READ, page=3)
        kinds = [event.kind for event in sink.events()]
        assert kinds == [OP_BEGIN, PAGE_READ, OP_END]
        begin, read, end = sink.events()
        assert begin.fields == {"name": "insert", "point": [0.5, 0.5]}
        assert read.op == op
        assert begin.op == op and end.op == op
        assert end.fields == {"name": "insert"}
        assert tracer.current_op == 0

    def test_nested_spans_restore_outer_op(self):
        sink = RingSink()
        tracer = Tracer(sink)
        with tracer.operation("outer") as outer_op:
            with tracer.operation("inner") as inner_op:
                tracer.emit(PAGE_READ, page=1)
            tracer.emit(PAGE_READ, page=2)
        assert inner_op != outer_op
        by_page = {
            event.fields["page"]: event.op
            for event in sink.events()
            if event.kind == PAGE_READ
        }
        assert by_page == {1: inner_op, 2: outer_op}

    def test_exception_stamps_op_end_with_error(self):
        sink = RingSink()
        tracer = Tracer(sink)
        with pytest.raises(ReproError):
            with tracer.operation("insert"):
                raise ReproError("boom")
        end = sink.events()[-1]
        assert end.kind == OP_END
        assert end.fields["error"] == "ReproError"
        assert tracer.current_op == 0

    def test_distinct_spans_get_distinct_op_ids(self):
        sink = RingSink()
        tracer = Tracer(sink)
        ops = []
        for _ in range(3):
            with tracer.operation("get") as op:
                ops.append(op)
        assert len(set(ops)) == 3
