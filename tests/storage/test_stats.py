"""Edge-case tests for the storage stat records themselves.

The behavioural paths (pager counts reads, pool counts hits) are covered
in ``test_pager.py``/``test_buffer.py``; these tests pin the record
semantics the observability layer leans on: snapshot/delta round-trips,
delta across a ``reset()``, and the hit-ratio denominator cases.
"""

from repro.storage.stats import BufferStats, IOStats


class TestIOStatsDelta:
    def test_delta_of_identical_snapshots_is_zero(self):
        stats = IOStats(reads=5, writes=3, allocations=2, frees=1)
        delta = stats.delta(stats.snapshot())
        assert (delta.reads, delta.writes, delta.allocations, delta.frees) == (
            0,
            0,
            0,
            0,
        )

    def test_delta_measures_only_the_window(self):
        stats = IOStats()
        stats.reads += 4
        before = stats.snapshot()
        stats.reads += 2
        stats.writes += 1
        delta = stats.delta(before)
        assert delta.reads == 2
        assert delta.writes == 1
        # The snapshot is an independent copy, not an alias.
        assert before.reads == 4

    def test_delta_across_reset_goes_negative(self):
        stats = IOStats(reads=7)
        before = stats.snapshot()
        stats.reset()
        stats.reads += 2
        # Documented semantics: diff only monotone samples; a reset in
        # the window shows up as a negative component, not a crash.
        assert stats.delta(before).reads == -5

    def test_total_sums_all_channels(self):
        stats = IOStats(reads=1, writes=2, allocations=3, frees=4)
        assert stats.total == 10


class TestBufferStatsHitRatio:
    def test_zero_logical_reads_is_zero_not_nan(self):
        stats = BufferStats()
        assert stats.reads == 0
        assert stats.hit_ratio == 0.0

    def test_all_misses(self):
        stats = BufferStats(reads=4)
        assert stats.hit_ratio == 0.0

    def test_all_hits(self):
        stats = BufferStats(reads=4, hits=4)
        assert stats.hit_ratio == 1.0

    def test_mixed(self):
        stats = BufferStats(reads=4, hits=3)
        assert stats.misses == 1
        assert stats.hit_ratio == 0.75

    def test_reset_restores_the_empty_denominator(self):
        stats = BufferStats(reads=4, hits=3)
        stats.reset()
        assert stats.hit_ratio == 0.0
