"""Sampling decisions: deterministic head sampling + tail keep rules.

Head sampling decides *before looking at the trace* whether it is kept,
from a seeded hash of the trace identity — cheap, stateless, and
deterministic (same seed, same traffic, same keeps), unlike
``random()``-based samplers whose exports differ run to run.

Tail rules decide *after the trace completes* and exist to make
sampling safe: a trace exhibiting any anomaly — error status, queue
shed/throttle, breaker open, SLO breach, causal violation, or a
duration above the op class's bucketed p99 — is always kept no matter
what the head decision said.  The chaos suite asserts zero
tail-rule misses at 1% head sampling.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram
from repro.obs.pipeline.records import SpanLike

#: Event names whose presence anywhere in a trace forces retention.
ANOMALY_EVENTS = frozenset(
    {
        "queue.shed",
        "queue.throttled",
        "breaker.open",
        "slo.breach",
        "causal.violation",
    }
)

#: Tail-keep rule identifiers, in reporting order.
RULE_ERROR = "error"
RULE_SLOW = "slow.p99"


def head_keep(seed: int, source: Optional[str], trace_id: int, rate: float) -> bool:
    """The deterministic keep/drop decision for one trace.

    Hashes ``seed:source:trace_id`` (SHA-256, first 8 bytes as a uniform
    draw in ``[0, 1)``) and keeps the trace when the draw lands under
    ``rate``.  Pure: no state, no clock, no randomness.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    key = f"{seed}:{source or ''}:{trace_id}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    draw = int.from_bytes(digest[:8], "big") / 2.0**64
    return draw < rate


def anomaly_rules(spans: Sequence[SpanLike]) -> List[str]:
    """Tail-keep rules the trace trips, deduplicated, in the order they
    are first found.

    ``breaker.transition`` events count as ``breaker.open`` when the
    transition lands in the open state — the resilience runtime emits
    transitions, not a dedicated open event.

    This runs for *every* completed trace (it is what makes sampling
    safe), so the scan branches once per span on its shape, and it
    allocates nothing until a span has events or a non-``ok`` status:
    a clean trace gets back a fresh empty list.
    """
    rules: Optional[List[str]] = None
    for span in spans:
        if isinstance(span, dict):
            status = span.get("status", "ok")
            events = span.get("events")
        else:
            status = span.status
            events = span.events
        if status != "ok":
            if rules is None:
                rules = [RULE_ERROR]
            elif RULE_ERROR not in rules:
                rules.append(RULE_ERROR)
        if not events:
            continue
        for event in events:
            if isinstance(event, dict):
                name = event.get("name", "")
                attributes = event.get("attributes") or {}
            else:
                name = event.name
                attributes = event.attributes
            if name in ANOMALY_EVENTS:
                rule = name
            elif (
                name == "breaker.transition"
                and attributes.get("to_state") == "open"
            ):
                rule = "breaker.open"
            else:
                continue
            if rules is None:
                rules = [rule]
            elif rule not in rules:
                rules.append(rule)
    return [] if rules is None else rules


class TailRules:
    """The stateful slow-trace rule: per-op-class bucketed p99.

    Event/error anomalies are stateless (:func:`anomaly_rules`); the
    latency rule needs history.  Each op class counts its root
    durations in one :class:`~repro.obs.metrics.Histogram` and, once
    ``min_count`` observations have armed it, any duration strictly
    above the histogram's p99 is kept.  The p99 is clamped to the
    observed ``[min, max]``, so traffic that always takes the same time
    trips the rule only with a new maximum.  Check-then-observe: a trace
    is judged against the threshold built from the traffic *before* it,
    so the decision sequence is deterministic and independent of the
    keep outcomes.  The histograms are the rule's own, registered in no
    :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(self, *, min_count: int = 32) -> None:
        self.min_count = min_count
        self._histograms: Dict[str, Histogram] = {}

    def judge(self, op: str, duration_ms: float) -> bool:
        """Whether ``duration_ms`` is slow for ``op``, then count it: the
        pipeline's per-trace call."""
        histogram = self._histograms.get(op)
        if histogram is None:
            histogram = self._histograms[op] = Histogram(
                RULE_SLOW, {"op": op}, DEFAULT_BUCKETS
            )
            slow = False
        else:
            slow = (
                histogram.count >= self.min_count
                and duration_ms > histogram.quantile(0.99)
            )
        histogram.observe(duration_ms)
        return slow

    def threshold(self, op: str) -> Optional[float]:
        """The current p99 for an op class (``None`` before the rule
        arms)."""
        histogram = self._histograms.get(op)
        if histogram is None or histogram.count < self.min_count:
            return None
        return histogram.quantile(0.99)
