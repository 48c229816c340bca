"""Bucket-interpolated percentiles, the one scheme of every histogram.

``Histogram.quantile`` finds the bucket that holds the nearest-rank
order statistic (``nearest_rank``, what the offline reports read
exactly), interpolates linearly within it and clamps the result to the
observed ``[min, max]``; ``RollupSeries`` inherits it.  These
properties pin that contract on arbitrary non-negative streams and
bucket layouts.
"""

import bisect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_QUANTILES,
    Histogram,
    nearest_rank,
    quantile_label,
)
from repro.obs.pipeline.rollup import RollupSeries

pytestmark = pytest.mark.obs

LABELS = ("p50", "p95", "p99")

bounds_strategy = st.one_of(
    st.just(DEFAULT_BUCKETS),
    st.lists(
        st.floats(min_value=0.0, max_value=30_000.0, allow_nan=False),
        min_size=1,
        max_size=8,
        unique=True,
    ).map(lambda bounds: tuple(sorted(bounds))),
)
values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=60_000.0, allow_nan=False),
    min_size=1,
    max_size=60,
)
#: Quantiles whose rank ``q * n`` can be a whole number, which the
#: bucket search must treat as reaching that bucket, and arbitrary ones.
quantile_strategy = st.one_of(
    st.sampled_from(DEFAULT_QUANTILES + (0.25, 0.75)),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)


def _histogram(bounds, values):
    histogram = Histogram("latency", {}, bounds)
    for value in values:
        histogram.observe(value)
    return histogram


def test_quantile_labels():
    assert [quantile_label(q) for q in DEFAULT_QUANTILES] == list(LABELS)
    assert quantile_label(0.5) == "p50"
    assert quantile_label(0.99) == "p99"
    assert quantile_label(0.999) == "p99.9"


@settings(max_examples=300, deadline=None)
@given(values=values_strategy, q=quantile_strategy)
def test_nearest_rank_is_the_first_value_to_reach_rank_qn(values, q):
    exact = nearest_rank(sorted(values), q)
    assert exact in values
    assert sum(value <= exact for value in values) >= q * len(values)
    assert sum(value < exact for value in values) < q * len(values)


def test_nearest_rank_of_nothing_is_zero():
    assert nearest_rank([], 0.5) == 0.0


@settings(max_examples=300, deadline=None)
@given(bounds=bounds_strategy, values=values_strategy, q=quantile_strategy)
# The rank reaches exactly the end of the first bucket.
@example(bounds=DEFAULT_BUCKETS, values=[1.0, 50.0], q=0.5)
# ``lower + (bound - lower) * 1.0`` rounds one ulp past this bound.
@example(
    bounds=(6669.172515740922, 26433.235917271293),
    values=[1.0, 20_000.0, 40_000.0],
    q=2 / 3,
)
def test_estimate_lies_in_the_order_statistics_bucket(bounds, values, q):
    histogram = _histogram(bounds, values)
    estimate = histogram.quantile(q)
    ordered = sorted(values)
    exact = nearest_rank(ordered, q)
    index = bisect.bisect_left(histogram.bounds, exact)
    low = histogram.bounds[index - 1] if index else 0.0
    high = histogram.bounds[index] if index < len(bounds) else ordered[-1]
    assert low <= estimate <= high
    assert ordered[0] <= estimate <= ordered[-1]


@settings(max_examples=200, deadline=None)
@given(
    bounds=bounds_strategy,
    values=values_strategy,
    qs=st.lists(quantile_strategy, min_size=2, max_size=6),
)
def test_estimate_is_non_decreasing_in_q(bounds, values, qs):
    histogram = _histogram(bounds, values)
    estimates = [histogram.quantile(q) for q in sorted(qs)]
    assert estimates == sorted(estimates)


@settings(max_examples=200, deadline=None)
@given(
    bounds=bounds_strategy,
    value=st.floats(min_value=0.0, max_value=60_000.0, allow_nan=False),
    count=st.integers(min_value=1, max_value=50),
)
def test_a_point_mass_reads_exactly(bounds, value, count):
    histogram = _histogram(bounds, [value] * count)
    assert histogram.percentiles() == dict.fromkeys(LABELS, value)


@settings(max_examples=200, deadline=None)
@given(values=values_strategy, q=quantile_strategy)
def test_rollups_and_histograms_agree(values, q):
    # Rollups bucket on DEFAULT_BUCKETS; the values reach past its last
    # bound into the +Inf bucket.
    histogram = _histogram(DEFAULT_BUCKETS, values)
    series = RollupSeries(("op", "-", "-"))
    for value in values:
        series.observe(value, error=False, t_ms=0.0)
    assert series.percentiles() == histogram.percentiles()
    assert series.quantile(q) == histogram.quantile(q)
