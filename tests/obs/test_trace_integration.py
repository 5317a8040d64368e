"""End-to-end trace tests: replay equals counters, pages equal IOStats.

These are the PR's acceptance tests.  A captured event stream is not a
narrative — it is a *second ledger* of the same structural facts
:class:`~repro.core.stats.OpCounters` and
:class:`~repro.storage.stats.IOStats` record, so counting events of each
kind must reproduce the counter deltas exactly, on any workload.
"""

from collections import Counter as KindCounter

import pytest

from repro.core.tree import BVTree
from repro.errors import KeyNotFoundError
from repro.obs.events import (
    DATA_SPLIT,
    DEMOTION,
    INDEX_SPLIT,
    MERGE,
    PAGE_READ,
    PROMOTION,
    REDISTRIBUTE,
    STRUCTURAL_KINDS,
)
from repro.obs.sinks import JsonlSink, RingSink, read_jsonl
from repro.storage import BufferPool, PageStore
from tests.conftest import make_points

#: Maps structural event kinds to the OpCounters field they mirror.
KIND_TO_COUNTER = {
    DATA_SPLIT: "data_splits",
    INDEX_SPLIT: "index_splits",
    PROMOTION: "promotions",
    DEMOTION: "demotions",
    MERGE: "merges",
    REDISTRIBUTE: "redistributions",
}


def churn(tree: BVTree, points) -> None:
    """Grow the tree fully, then shrink it far enough to force merges.

    ``points`` must be path-distinct (uniform floats at 16-bit
    resolution are), so every delete targets a present record.
    """
    for i, point in enumerate(points):
        tree.insert(point, i, replace=True)
    for point in points[: len(points) * 4 // 5]:
        tree.delete(point)


class TestReplayEqualsCounters:
    def test_structural_event_counts_equal_counter_deltas(self, unit2):
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        sink = RingSink(capacity=1 << 20)
        before = tree.stats.snapshot()
        tree.tracer.subscribe(sink)
        try:
            churn(tree, make_points(500, 2, seed=41))
        finally:
            tree.tracer.unsubscribe(sink)
        delta = tree.stats.delta(before).to_dict()
        kinds = KindCounter(event.kind for event in sink.events())
        assert sink.dropped == 0
        for kind, counter in KIND_TO_COUNTER.items():
            assert kinds[kind] == delta[counter], (kind, counter)
        # The workload must actually exercise every structural path, or
        # the equalities above are vacuous.
        for counter in KIND_TO_COUNTER.values():
            assert delta[counter] > 0, counter

    def test_replay_reconstructs_split_promotion_sequence(self, unit2):
        """An index split's promotions follow it, inside the same span."""
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        sink = RingSink(capacity=1 << 20)
        tree.tracer.subscribe(sink)
        try:
            for i, point in enumerate(make_points(400, 2, seed=43)):
                tree.insert(point, i, replace=True)
        finally:
            tree.tracer.unsubscribe(sink)
        structural = [
            event for event in sink.events() if event.kind in STRUCTURAL_KINDS
        ]
        assert structural
        # Sequence numbers are strictly increasing: the stream is a total
        # order, so it can be replayed deterministically.
        seqs = [event.seq for event in structural]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # Every promotion belongs to the same insert span as an index
        # split that precedes it (promotion is split fallout, paper §4).
        split_ops: set[int] = set()
        for event in structural:
            if event.kind == INDEX_SPLIT:
                split_ops.add(event.op)
            elif event.kind == PROMOTION:
                assert event.op in split_ops
        assert split_ops

    def test_jsonl_round_trip_preserves_the_stream(self, unit2, tmp_path):
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tree.tracer.subscribe(sink)
            try:
                for i, point in enumerate(make_points(120, 2, seed=45)):
                    tree.insert(point, i, replace=True)
            finally:
                tree.tracer.unsubscribe(sink)
        events = read_jsonl(path)
        assert len(events) == sink.count
        kinds = KindCounter(event.kind for event in events)
        assert kinds[DATA_SPLIT] == tree.stats.data_splits


class TestPageReadsEqualIOStats:
    def test_buffered_page_reads_match_both_stat_layers(self, unit2):
        """One page_read per logical read; physical=True iff a miss."""
        pool = BufferPool(PageStore(), capacity=8)
        tree = BVTree(unit2, data_capacity=4, fanout=4, store=pool)
        for i, point in enumerate(make_points(300, 2, seed=47)):
            tree.insert(point, i, replace=True)
        io_before = pool.store.stats.snapshot()
        logical_before = pool.stats.reads
        sink = RingSink(capacity=1 << 20)
        tree.tracer.subscribe(sink)
        try:
            for point in make_points(300, 2, seed=47):
                tree.get(point)
        finally:
            tree.tracer.unsubscribe(sink)
        reads = [e for e in sink.events() if e.kind == PAGE_READ]
        physical = [e for e in reads if e.fields.get("physical") is True]
        assert sink.dropped == 0
        assert len(physical) == pool.store.stats.delta(io_before).reads
        assert len(reads) == pool.stats.reads - logical_before
        # The tiny pool guarantees both hits and misses occurred, so the
        # equalities above discriminate.
        assert 0 < len(physical) < len(reads)

    def test_unbuffered_reads_are_all_physical(self, unit2):
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        for i, point in enumerate(make_points(200, 2, seed=48)):
            tree.insert(point, i, replace=True)
        before = tree.store.stats.snapshot()
        sink = RingSink(capacity=1 << 20)
        tree.tracer.subscribe(sink)
        try:
            for point in make_points(50, 2, seed=48):
                tree.get(point)
        finally:
            tree.tracer.unsubscribe(sink)
        reads = [e for e in sink.events() if e.kind == PAGE_READ]
        assert all(e.fields.get("physical") is True for e in reads)
        assert len(reads) == tree.store.stats.delta(before).reads


class TestTracedOperationsStayCorrect:
    def test_traced_tree_answers_match_untraced(self, unit2):
        traced = BVTree(unit2, data_capacity=4, fanout=4)
        plain = BVTree(unit2, data_capacity=4, fanout=4)
        points = make_points(250, 2, seed=49)
        ring = RingSink(capacity=1 << 20)
        traced.tracer.subscribe(ring)
        try:
            for i, point in enumerate(points):
                traced.insert(point, i, replace=True)
                plain.insert(point, i, replace=True)
        finally:
            traced.tracer.unsubscribe(ring)
        assert len(traced) == len(plain)
        for point in points[:50]:
            assert traced.get(point) == plain.get(point)
        lows, highs = (0.25, 0.25), (0.75, 0.75)
        assert sorted(
            value for _, value in traced.range_query(lows, highs).records
        ) == sorted(value for _, value in plain.range_query(lows, highs).records)
        traced.check()

    def test_missing_get_emits_op_end_with_error(self, unit2):
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        for i, point in enumerate(make_points(100, 2, seed=50)):
            tree.insert(point, i, replace=True)
        sink = RingSink()
        tree.tracer.subscribe(sink)
        try:
            with pytest.raises(KeyNotFoundError):
                tree.get((0.987654, 0.123456))
        finally:
            tree.tracer.unsubscribe(sink)
        end = sink.events()[-1]
        assert end.kind == "op_end"
        assert end.fields.get("error") == "KeyNotFoundError"
