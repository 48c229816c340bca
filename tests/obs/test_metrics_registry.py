"""MetricsRegistry unit behaviour: instruments, dedupe, snapshots."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.obs.metrics import DEFAULT_BUCKETS

pytestmark = pytest.mark.obs


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        counter = registry.counter("requests", site="a")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.counter("requests").inc(-1)

    def test_same_name_and_labels_share_one_instrument(self, registry):
        a = registry.counter("requests", site="x", kind="drop")
        b = registry.counter("requests", kind="drop", site="x")  # order-insensitive
        assert a is b

    def test_distinct_labels_are_distinct_series(self, registry):
        registry.counter("requests", site="x").inc()
        registry.counter("requests", site="y").inc(2)
        assert registry.total("requests") == 3
        values = registry.counter_values("requests")
        assert values[(("site", "x"),)] == 1
        assert values[(("site", "y"),)] == 2


class TestGauge:
    def test_set_and_add(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0


class TestHistogram:
    def test_bucketing_and_overflow(self, registry):
        histogram = registry.histogram("latency", buckets=(10.0, 100.0))
        for value in (5.0, 10.0, 50.0, 1_000.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [2, 1]  # <=10 twice, <=100 once
        assert histogram.overflow == 1
        assert histogram.count == 4
        assert histogram.sum == 1_065.0
        assert histogram.mean == pytest.approx(266.25)

    def test_cumulative_ends_with_inf(self, registry):
        histogram = registry.histogram("latency", buckets=(1.0, 2.0))
        histogram.observe(1.5)
        histogram.observe(99.0)
        assert histogram.cumulative() == [(1.0, 0), (2.0, 1), (float("inf"), 2)]

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_unsorted_bounds_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=(5.0, 1.0))

    def test_empty_histogram_mean_is_zero(self, registry):
        assert registry.histogram("latency").mean == 0.0

    def test_value_on_bucket_bound_counts_into_that_bucket(self, registry):
        # Buckets are cumulative-<=, so an observation exactly on a
        # bound belongs to that bound's bucket, not the next one.
        histogram = registry.histogram("latency", buckets=(10.0, 100.0))
        histogram.observe(10.0)
        histogram.observe(100.0)
        assert histogram.bucket_counts == [1, 1]
        assert histogram.overflow == 0

    def test_negative_and_zero_observations(self, registry):
        histogram = registry.histogram("delta", buckets=(0.0, 10.0))
        histogram.observe(-5.0)
        histogram.observe(0.0)
        histogram.observe(5.0)
        assert histogram.bucket_counts == [2, 1]  # <=0 twice
        assert histogram.count == 3
        assert histogram.sum == 0.0
        assert histogram.mean == 0.0

    def test_empty_bounds_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=())

    def test_streaming_percentiles(self, registry):
        histogram = registry.histogram("latency", buckets=(100.0,))
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        # Under five samples the P² markers hold exact order statistics
        # (nearest-rank, so the median of {1,2,3,4} is 2).
        assert histogram.quantile(0.5) == pytest.approx(2.0)
        percentiles = histogram.percentiles()
        assert set(percentiles) == {"p50", "p95", "p99"}
        assert percentiles["p99"] == pytest.approx(4.0)

    def test_percentiles_in_snapshot(self, registry):
        histogram = registry.histogram("latency", buckets=(10.0,))
        histogram.observe(4.0)
        snapshot = registry.snapshot()
        assert snapshot["latency"][0]["percentiles"] == {
            "p50": 4.0, "p95": 4.0, "p99": 4.0,
        }


class TestRegistry:
    def test_kind_clash_rejected(self, registry):
        registry.counter("metric")
        with pytest.raises(ConfigurationError):
            registry.gauge("metric")

    def test_kind_of(self, registry):
        registry.counter("c")
        assert registry.kind_of("c") == "counter"
        assert registry.kind_of("missing") is None

    def test_total_of_unregistered_metric_is_zero(self, registry):
        assert registry.total("nothing") == 0

    def test_collect_is_sorted_and_filterable(self, registry):
        registry.counter("b", z="1")
        registry.counter("a")
        registry.counter("b", a="1")
        names = [instrument.name for instrument in registry.collect()]
        assert names == ["a", "b", "b"]
        assert len(list(registry.collect("b"))) == 2

    def test_snapshot_is_deterministic_and_jsonable(self, registry):
        import json

        registry.counter("requests", site="x").inc(3)
        histogram = registry.histogram("latency", buckets=(10.0,))
        histogram.observe(5.0)
        histogram.observe(50.0)
        snapshot = registry.snapshot()
        assert snapshot["requests"] == [{"labels": {"site": "x"}, "value": 3}]
        assert snapshot["latency"][0]["buckets"] == [[10.0, 1], ["+Inf", 2]]
        # +Inf is encoded as a string precisely so this round-trips.
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert registry.snapshot() == snapshot


class TestInstrumentMemo:
    """Repeat requests are memoized; the guard and kind checks still hold."""

    def test_repeat_requests_share_one_instrument(self, registry):
        first = registry.histogram("substrate.latency_ms", operation="a.b")
        assert registry.histogram("substrate.latency_ms", operation="a.b") is first
        assert registry.histogram("substrate.latency_ms", operation="a.c") is not first

    def test_kind_clash_still_raises_for_a_memoized_name(self, registry):
        registry.counter("calls", site="x").inc()
        registry.counter("calls", site="x").inc()  # served from the memo
        for clash in (registry.gauge, registry.histogram):
            with pytest.raises(ConfigurationError, match="already registered"):
                clash("calls", site="x")
        assert registry.counter("calls", site="x").value == 2

    def test_every_over_limit_request_counts_an_overflow(self):
        registry = MetricsRegistry(max_series_per_metric=2)
        a = registry.counter("hits", tenant="a")
        b = registry.counter("hits", tenant="b")
        for _ in range(3):
            assert registry.counter("hits", tenant="a") is a
            assert registry.counter("hits", tenant="b") is b
        assert registry.total("obs.cardinality_overflow") == 0
        overflow = registry.counter("hits", tenant="c")
        for tenant in ("c", "c", "d", "c"):
            assert registry.counter("hits", tenant=tenant) is overflow
        assert overflow.labels == {"other": "true"}
        assert registry.total("obs.cardinality_overflow") == 5
        assert registry.counter("hits", tenant="a") is a  # still in limit
        assert registry.total("obs.cardinality_overflow") == 5

    def test_equal_values_of_other_types_stay_distinct_series(self, registry):
        as_int = registry.counter("shards", index=1)
        as_bool = registry.counter("shards", index=True)
        as_float = registry.counter("shards", index=1.0)
        assert registry.counter("shards", index=1) is as_int
        assert registry.counter("shards", index=True) is as_bool
        assert len({id(as_int), id(as_bool), id(as_float)}) == 3
        assert registry.counter("shards", index="1") is as_int

    def test_unhashable_label_values_still_resolve(self, registry):
        first = registry.counter("calls", tags=["a", "b"])
        assert registry.counter("calls", tags=["a", "b"]) is first
        assert first.labels == {"tags": "['a', 'b']"}

    def test_label_order_does_not_split_series(self, registry):
        first = registry.counter("calls", site="x", op="y")
        assert registry.counter("calls", op="y", site="x") is first

    def test_explicit_buckets_take_the_resolving_path(self, registry):
        histogram = registry.histogram("wait_ms", buckets=(1.0, 2.0), shard="0")
        assert histogram.bounds == (1.0, 2.0)
        assert registry.histogram("wait_ms", shard="0") is histogram
        assert registry.histogram("wait_ms", buckets=(5.0,), shard="0") is histogram
