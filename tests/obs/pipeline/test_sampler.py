"""Sampling decisions: seeded head hash, tail keep rules, bucketed slow rule."""

import math

import pytest

from repro.obs.pipeline import (
    ANOMALY_EVENTS,
    PipelineConfig,
    TailRules,
    TelemetryPipeline,
    anomaly_rules,
    head_keep,
)
from repro.obs.pipeline.sampler import RULE_ERROR, RULE_SLOW
from repro.obs.span import Span

pytestmark = [pytest.mark.obs, pytest.mark.pipeline]


def _span(status="ok", events=(), **attributes):
    span = Span(
        name="dispatch:op",
        trace_id=1,
        span_id=1,
        parent_id=None,
        start_virtual_ms=0.0,
        end_virtual_ms=1.0,
    )
    span.status = status
    span.attributes.update(attributes)
    for name, attrs in events:
        span.add_event(name, 0.0, **attrs)
    return span


class TestHeadKeep:
    def test_deterministic(self):
        decisions = [head_keep(7, "agent-1", 42, 0.5) for _ in range(3)]
        assert len(set(decisions)) == 1

    def test_rate_bounds(self):
        assert head_keep(0, None, 1, 1.0)
        assert not head_keep(0, None, 1, 0.0)

    def test_keep_fraction_tracks_rate(self):
        kept = sum(head_keep(3, None, trace_id, 0.1) for trace_id in range(10_000))
        assert 0.07 < kept / 10_000 < 0.13

    def test_seed_changes_the_keep_set(self):
        a = {t for t in range(2_000) if head_keep(1, None, t, 0.1)}
        b = {t for t in range(2_000) if head_keep(2, None, t, 0.1)}
        assert a != b

    def test_source_is_part_of_the_identity(self):
        a = {t for t in range(2_000) if head_keep(1, "agent-1", t, 0.1)}
        b = {t for t in range(2_000) if head_keep(1, "agent-2", t, 0.1)}
        assert a != b


class TestAnomalyRules:
    def test_clean_trace_has_no_rules(self):
        assert anomaly_rules([_span(), _span()]) == []

    def test_error_status(self):
        assert anomaly_rules([_span(status="error")]) == [RULE_ERROR]

    @pytest.mark.parametrize("event", sorted(ANOMALY_EVENTS))
    def test_each_anomaly_event(self, event):
        assert anomaly_rules([_span(events=[(event, {})])]) == [event]

    def test_breaker_transition_to_open_counts(self):
        spans = [_span(events=[("breaker.transition", {"to_state": "open"})])]
        assert anomaly_rules(spans) == ["breaker.open"]

    def test_breaker_transition_to_closed_does_not(self):
        spans = [_span(events=[("breaker.transition", {"to_state": "closed"})])]
        assert anomaly_rules(spans) == []

    def test_rules_deduplicate(self):
        spans = [
            _span(status="error", events=[("queue.shed", {})]),
            _span(status="error", events=[("queue.shed", {})]),
        ]
        assert anomaly_rules(spans) == [RULE_ERROR, "queue.shed"]

    def test_dict_records_match_live_spans(self):
        live = [_span(status="error", events=[("queue.throttled", {"tenant": "t"})])]
        records = [span.to_dict() for span in live]
        assert anomaly_rules(records) == anomaly_rules(live)


class TestTailRules:
    def test_unarmed_below_min_count(self):
        tail = TailRules(min_count=5)
        for power in range(5):
            assert tail.threshold("op") is None
            # Each duration is a new maximum: slow, were the rule armed.
            assert not tail.judge("op", 10.0**power)
        assert tail.threshold("op") is not None
        assert tail.judge("op", 1e6)

    def test_armed_flags_outliers(self):
        tail = TailRules(min_count=5)
        for _ in range(50):
            assert not tail.judge("op", 10.0)
        assert tail.threshold("op") == 10.0
        assert not tail.judge("op", 5.0)
        assert tail.judge("op", 1_000.0)

    def test_op_classes_are_independent(self):
        tail = TailRules(min_count=5)
        for _ in range(50):
            tail.judge("fast", 1.0)
        assert tail.judge("fast", 100.0)
        assert not tail.judge("slow", 100.0)  # first of its class → unarmed

    def test_judge_compares_against_the_threshold(self):
        durations = [float(value) for value in range(1, 101)]
        below, above = TailRules(), TailRules()
        for duration in durations:
            below.judge("op", duration)
            above.judge("op", duration)
        threshold = below.threshold("op")
        assert threshold == above.threshold("op")
        assert durations[0] < threshold < durations[-1]
        assert not below.judge("op", threshold)
        assert above.judge("op", math.nextafter(threshold, math.inf))

    def test_a_point_mass_with_float_jitter_trips_only_on_a_new_maximum(self):
        """Every ``addProximityAlert`` root of a seed-1 ``fleet_distrib``
        fleet lasts 53.6 ms to within a few ulps.  The p99 is clamped
        to the observed maximum, so only the first longer root is slow."""
        tail = TailRules(min_count=32)
        for _ in range(40):
            assert not tail.judge("addProximityAlert", 53.59999999999991)
        flags = [
            tail.judge("addProximityAlert", 53.600000000000364) for _ in range(10)
        ]
        assert flags == [True] + [False] * 9

    def test_the_rule_uses_the_pipeline_buckets_outside_its_registry(self):
        durations = [float(n * n) for n in range(1, 21)]
        pipeline = TelemetryPipeline(PipelineConfig(slow_trace_min_count=5))
        pipeline.ingest_records(
            {
                "name": "dispatch:op",
                "trace_id": trace_id,
                "span_id": 1,
                "parent_id": None,
                "start_virtual_ms": 0.0,
                "end_virtual_ms": duration,
            }
            for trace_id, duration in enumerate(durations, 1)
        )
        rule = TailRules(min_count=5)
        for duration in durations:
            rule.judge("op", duration)
        assert pipeline.tail.threshold("op") == rule.threshold("op") == 400.0
        assert pipeline.metrics.kind_of(RULE_SLOW) is None
