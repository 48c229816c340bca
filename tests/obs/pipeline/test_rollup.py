"""RED rollup series: bucketing, exemplars, read-time quantiles, the
series-cardinality bound."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.pipeline import RedRollups
from repro.obs.pipeline.rollup import RollupSeries

pytestmark = [pytest.mark.obs, pytest.mark.pipeline]

KEY = ("notify", "android", "eu-west")


@pytest.fixture
def series():
    return RollupSeries(KEY)  # on DEFAULT_BUCKETS: 1, 2, 5, 10, ... 30_000 ms


class TestRollupSeries:
    def test_red_accumulation(self, series):
        series.observe(5.0, error=False, t_ms=0.0)
        series.observe(50.0, error=True, t_ms=500.0)
        series.observe(50_000.0, error=False, t_ms=1_000.0)
        assert series.count == 3
        assert series.errors == 1
        assert series.error_ratio == pytest.approx(1 / 3)
        assert series.sum == pytest.approx(50_055.0)
        assert series.max == 50_000.0
        assert series.bucket_counts == [0, 0, 1, 0, 0, 1] + [0] * 8
        assert series.overflow == 1
        assert series.rate_per_s() == pytest.approx(3.0)  # 3 over 1s window

    def test_degenerate_window_rate(self, series):
        series.observe(1.0, error=False, t_ms=42.0)
        assert series.rate_per_s() == 1.0

    def test_exemplars_land_in_their_bucket(self, series):
        series.observe(1.0, error=False, t_ms=0.0, exemplar="agent-1:7")
        series.observe(2.0, error=False, t_ms=0.0)  # sampled out: no exemplar
        series.observe(50_000.0, error=False, t_ms=0.0, exemplar="agent-2:9")
        assert series.exemplars[0] == "agent-1:7"
        assert series.exemplars[1] is None
        assert series.exemplars[-1] == "agent-2:9"
        buckets = series.to_dict()["buckets"]
        assert buckets[0]["exemplar"] == "agent-1:7"
        assert buckets[-1] == {"le": "+Inf", "count": 3, "exemplar": "agent-2:9"}

    def test_cumulative_bucket_counts(self, series):
        for duration in (1.0, 2.0, 20.0, 200.0):
            series.observe(duration, error=False, t_ms=0.0)
        counts = [bucket["count"] for bucket in series.to_dict()["buckets"]]
        assert counts == [1, 2, 2, 2, 3, 3, 3] + [4] * 8

    def test_quantiles_from_buckets(self, series):
        assert series.quantile(0.5) == 0.0  # empty
        for duration in [1.0] * 50 + [50.0] * 45 + [500.0] * 5:
            series.observe(duration, error=False, t_ms=0.0)
        p50, p99 = series.quantile(0.5), series.quantile(0.99)
        assert 0.0 < p50 <= 10.0
        assert 100.0 < p99 <= 1_000.0
        assert p50 <= series.quantile(0.95) <= p99 <= series.max
        labels = series.percentiles()
        assert set(labels) == {"p50", "p95", "p99"}

    def test_overflow_quantile_bounded_by_max(self, series):
        for duration in (50_000.0, 60_000.0, 70_000.0):
            series.observe(duration, error=False, t_ms=0.0)
        assert 30_000.0 <= series.quantile(0.99) <= 70_000.0


class TestRedRollups:
    def test_series_per_key_sorted(self):
        rollups = RedRollups(max_series=8)
        rollups.observe(("b", "-", "-"), 1.0, error=False, t_ms=0.0)
        rollups.observe(("a", "-", "-"), 2.0, error=True, t_ms=0.0)
        rollups.observe(("a", "-", "-"), 3.0, error=False, t_ms=1.0)
        assert [series.op for series in rollups.series()] == ["a", "b"]
        assert rollups.requests == 3
        assert rollups.errors == 1

    def test_cardinality_bound_collapses(self):
        registry = MetricsRegistry()
        rollups = RedRollups(max_series=2, metrics=registry)
        for index in range(5):
            rollups.observe(
                (f"op-{index}", "-", "-"), 1.0, error=False, t_ms=0.0
            )
        assert rollups.collapsed_observations == 3
        collapsed = rollups.series()[-1]
        assert collapsed.collapsed and collapsed.count == 3
        assert collapsed.to_dict()["labels"] == {"other": "true"}
        assert registry.total("obs.cardinality_overflow") == 3
        assert rollups.requests == 5  # nothing lost, only label detail

    def test_existing_keys_keep_flowing_after_the_bound(self):
        rollups = RedRollups(max_series=1)
        rollups.observe(("a", "-", "-"), 1.0, error=False, t_ms=0.0)
        rollups.observe(("b", "-", "-"), 1.0, error=False, t_ms=0.0)
        rollups.observe(("a", "-", "-"), 1.0, error=False, t_ms=0.0)
        assert rollups.collapsed_observations == 1
        by_op = {series.op: series.count for series in rollups.series()}
        assert by_op == {"a": 2, "other": 1}

    def test_to_dict_shape(self):
        rollups = RedRollups(max_series=4)
        rollups.observe(KEY, 1.0, error=False, t_ms=0.0)
        payload = rollups.to_dict()
        assert payload["distinct_keys"] == 1
        assert payload["collapsed_observations"] == 0
        assert payload["series"][0]["labels"]["op"] == "notify"
