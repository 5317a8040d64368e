"""Property tests for the log-linear :class:`~repro.obs.metrics.Histogram`.

Three laws over randomised non-negative floats and ints:

- ``quantile(q)`` is never below the exact ceil-rank order statistic
  and at most that statistic times 33/32 (one bucket of 32 per power of
  two);
- the integers 0..63 come back exactly (each is an edge of its own);
- ``observe_many`` lands the same counts, count and total as one
  ``observe`` per value.
"""

from math import ceil

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import SUB_BUCKETS, Histogram

FLOATS = st.floats(
    min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False
)
INTS = st.integers(min_value=0, max_value=1 << 40)
VALUES = st.lists(st.one_of(FLOATS, INTS), min_size=1, max_size=200)
QUANTILES = st.floats(min_value=0.0, max_value=1.0)
SMALL_INTS = st.lists(
    st.integers(min_value=0, max_value=63), min_size=1, max_size=200
)


def order_statistic(values, q):
    """The exact ceil-rank (at least 1) order statistic."""
    ordered = sorted(values)
    return ordered[max(1, ceil(len(ordered) * q)) - 1]


@settings(max_examples=200, deadline=None)
@given(VALUES, QUANTILES)
def test_quantile_is_within_one_bucket_above_the_order_statistic(values, q):
    hist = Histogram("h")
    for value in values:
        hist.observe(value)
    exact = order_statistic(values, q)
    answer = hist.quantile(q)
    assert exact <= answer <= exact * (SUB_BUCKETS + 1) / SUB_BUCKETS


@settings(max_examples=100, deadline=None)
@given(SMALL_INTS, QUANTILES)
def test_small_integers_come_back_exactly(values, q):
    hist = Histogram("h")
    hist.observe_many(values)
    assert hist.quantile(q) == order_statistic(values, q)
    assert sorted(hist.counts) == sorted(set(values))


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_observe_many_matches_sequential_observe(values):
    one = Histogram("a")
    for value in values:
        one.observe(value)
    many = Histogram("b")
    many.observe_many(values)
    assert many.counts == one.counts
    assert many.count == one.count == len(values)
    if all(isinstance(value, int) for value in values):
        assert many.total == one.total
    else:  # the two sum the same floats in different orders
        assert abs(many.total - one.total) <= 1e-9 * max(1.0, one.total)
