"""Sampling decisions: seeded head hash, tail keep rules, P² slow rule."""

import pytest

from repro.obs.pipeline import ANOMALY_EVENTS, TailRules, anomaly_rules, head_keep
from repro.obs.pipeline.sampler import RULE_ERROR
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
        for _ in range(4):
            assert not tail.is_slow("op", 1_000.0)
            tail.observe("op", 1.0)
        assert tail.threshold("op") is None

    def test_armed_flags_outliers(self):
        tail = TailRules(min_count=5)
        for _ in range(50):
            tail.observe("op", 10.0)
        assert tail.threshold("op") is not None
        assert tail.is_slow("op", 1_000.0)
        assert not tail.is_slow("op", 5.0)

    def test_op_classes_are_independent(self):
        tail = TailRules(min_count=5)
        for _ in range(50):
            tail.observe("fast", 1.0)
        assert tail.is_slow("fast", 100.0)
        assert not tail.is_slow("slow", 100.0)  # never observed → unarmed
