"""Tests for the trace sinks and the JSONL round-trip."""

import pytest

from repro.errors import ReproError
from repro.obs.events import OP_BEGIN, PAGE_READ, TraceEvent
from repro.obs.sinks import JsonlSink, RingSink, TraceSink, read_jsonl


def make_events(n: int) -> list[TraceEvent]:
    return [
        TraceEvent(seq=i + 1, op=0, kind=PAGE_READ, fields={"page": i})
        for i in range(n)
    ]


class TestRingSink:
    def test_retains_in_order(self):
        sink = RingSink(capacity=8)
        events = make_events(5)
        for event in events:
            sink.emit(event)
        assert sink.events() == events
        assert len(sink) == 5
        assert sink.dropped == 0

    def test_overflow_drops_oldest(self):
        sink = RingSink(capacity=3)
        events = make_events(5)
        for event in events:
            sink.emit(event)
        assert sink.events() == events[2:]
        assert sink.dropped == 2

    def test_clear_resets_buffer_and_dropped(self):
        sink = RingSink(capacity=2)
        for event in make_events(4):
            sink.emit(event)
        sink.clear()
        assert sink.events() == []
        assert len(sink) == 0
        assert sink.dropped == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ReproError, match="capacity"):
            RingSink(capacity=0)

    def test_satisfies_protocol(self):
        assert isinstance(RingSink(), TraceSink)

    def test_publish_exposes_overflow_as_gauges(self):
        from repro.obs.metrics import MetricsRegistry

        sink = RingSink(capacity=3)
        for event in make_events(5):
            sink.emit(event)
        registry = MetricsRegistry()
        sink.publish(registry)
        snap = registry.snapshot()
        assert snap["trace.ring.dropped"]["value"] == 2
        assert snap["trace.ring.retained"]["value"] == 3
        assert snap["trace.ring.capacity"]["value"] == 3

    def test_publish_tracks_current_state(self):
        from repro.obs.metrics import MetricsRegistry

        sink = RingSink(capacity=4)
        registry = MetricsRegistry()
        sink.publish(registry, prefix="ring")
        assert registry.snapshot()["ring.dropped"]["value"] == 0
        for event in make_events(6):
            sink.emit(event)
        sink.publish(registry, prefix="ring")
        assert registry.snapshot()["ring.dropped"]["value"] == 2


class TestJsonlSink:
    def test_write_and_read_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [
            TraceEvent(seq=1, op=1, kind=OP_BEGIN, fields={"name": "insert"}),
            TraceEvent(seq=2, op=1, kind=PAGE_READ, fields={"page": 4}),
        ]
        with JsonlSink(path) as sink:
            for event in events:
                sink.emit(event)
            assert sink.count == 2
        assert read_jsonl(path) == events

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.close()
        sink.close()

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.close()
        with pytest.raises(ReproError, match="closed"):
            sink.emit(make_events(1)[0])

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot open"):
            JsonlSink(tmp_path / "missing-dir" / "trace.jsonl")

    def test_satisfies_protocol(self, tmp_path):
        with JsonlSink(tmp_path / "trace.jsonl") as sink:
            assert isinstance(sink, TraceSink)


class TestReadJsonl:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"seq": 1, "op": 0, "kind": "page_read"}\n\n')
        assert len(read_jsonl(path)) == 1

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"seq": 1, "op": 0, "kind": "page_read"}\nnot json\n')
        with pytest.raises(ReproError, match=":2:"):
            read_jsonl(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            read_jsonl(tmp_path / "absent.jsonl")
