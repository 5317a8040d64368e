"""Unit tests for the measurement primitives."""

import gc
from contextlib import contextmanager, nullcontext

import pytest

from repro.errors import ReproError
from repro.perf.timer import (
    LOOKUP_CHUNK,
    LOOKUP_ROUNDS,
    Paired,
    Timing,
    measure,
    paired,
    paired_lookups,
)


class TestTiming:
    def test_statistics(self):
        t = Timing(samples=[0.3, 0.1, 0.2])
        assert t.best == 0.1
        assert t.mean == pytest.approx(0.2)
        assert t.median == pytest.approx(0.2)
        assert t.stddev == pytest.approx(0.1)

    def test_single_sample_has_zero_stddev(self):
        assert Timing(samples=[0.5]).stddev == 0.0


class TestMeasure:
    def test_sample_count_excludes_warmup(self):
        calls = []
        timing = measure(lambda _: calls.append(1), repeats=3, warmup=2)
        assert len(timing.samples) == 3
        assert len(calls) == 5

    def test_setup_runs_before_every_execution(self):
        states = []

        def setup():
            states.append(len(states))
            return states[-1]

        seen = []
        measure(seen.append, setup=setup, repeats=2, warmup=1)
        assert states == [0, 1, 2]
        assert seen == [0, 1, 2]

    def test_last_result_comes_from_final_timed_run(self):
        counter = iter(range(10))
        timing = measure(lambda _: next(counter), repeats=3, warmup=1)
        assert timing.last_result == 3

    def test_gc_state_restored(self):
        assert gc.isenabled()
        measure(lambda _: None, repeats=1, warmup=0)
        assert gc.isenabled()
        gc.disable()
        try:
            measure(lambda _: None, repeats=1, warmup=0)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_gc_disabled_during_samples(self):
        observed = []
        measure(lambda _: observed.append(gc.isenabled()), repeats=2, warmup=1)
        assert observed == [False, False, False]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ReproError):
            measure(lambda _: None, repeats=0)
        with pytest.raises(ReproError):
            measure(lambda _: None, warmup=-1)

    def test_samples_are_positive(self):
        timing = measure(lambda _: sum(range(100)), repeats=2, warmup=0)
        assert all(s > 0 for s in timing.samples)


class TestPaired:
    def test_rotates_configuration_order_each_round(self):
        order = []

        def config(name):
            @contextmanager
            def entered():
                order.append(name)
                yield name

            return entered

        timing = paired(
            lambda state, item: None,
            {"a": config("a"), "b": config("b"), "c": config("c")},
            range(3),
        )
        assert order == ["a", "b", "c", "b", "c", "a", "c", "a", "b"]
        assert {name: len(s) for name, s in timing.samples.items()} == {
            "a": 3, "b": 3, "c": 3,
        }

    def test_run_gets_state_and_item_with_gc_paused(self):
        seen = []
        warmed = []

        def run(state, item):
            seen.append((state, item, gc.isenabled()))

        paired(
            run,
            {"x": lambda: nullcontext("state")},
            ["i0", "i1"],
            warm=warmed.append,
        )
        assert seen == [("state", "i0", False), ("state", "i1", False)]
        assert warmed == ["i0", "i1"]

    def test_ratio_is_median_of_per_round_ratios(self):
        timing = Paired(samples={
            "bare": [1.0, 2.0, 4.0],
            "slow": [1.1, 2.0, 20.0],
        })
        # Per-round ratios 1.1, 1.0, 5.0: the outlier round is ignored.
        assert timing.ratio("slow", "bare") == pytest.approx(1.1)
        assert timing.median("bare") == 2.0

    def test_paired_lookups_times_every_chunk_point(self):
        calls = []
        timing = paired_lookups(
            calls.append,
            list(range(3 * LOOKUP_CHUNK)),
            {"bare": nullcontext, "again": nullcontext},
        )
        assert len(timing.samples["bare"]) == LOOKUP_ROUNDS
        # Each round: one untimed warm pass plus one pass per config.
        assert len(calls) == 3 * LOOKUP_ROUNDS * LOOKUP_CHUNK
