"""The live pipeline path against its earlier form.

The live sink keeps one open-trace buffer per attached tracer and hands
each completed trace, with its root's fields read out, to the one
decision the offline path also uses.  :class:`ReferencePipeline` keeps
the earlier live path as the reference: a ``(source, trace_id)``-keyed
buffer dict fed by a keyword ``source=`` sink, and a completion step
that searches for the root and reads it through shape-generic
accessors, with its own copy of the anomaly scan.  Its slow rule is
the shipped :class:`~repro.obs.pipeline.sampler.TailRules`, and its
rollup key is the live ``(op, platform, region)``: it is the reference
for the buffering, not for the key policy.  Driven by the same live
tracers, both must agree on accounting, rollups, retained bytes,
slow-rule thresholds and what observers see.
"""

import functools
import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.obs import Tracer
from repro.obs.pipeline import ANOMALY_EVENTS, PipelineConfig, TelemetryPipeline
from repro.obs.pipeline.config import op_class
from repro.obs.pipeline.pipeline import trace_ref
from repro.obs.pipeline.records import record_from_span
from repro.obs.pipeline.rollup import UNKNOWN
from repro.obs.pipeline.sampler import RULE_ERROR, RULE_SLOW, head_keep
from repro.util.clock import SimulatedClock

pytestmark = [pytest.mark.obs, pytest.mark.pipeline]


# -- the reference: the earlier live path -------------------------------------


def _name(span):
    return span["name"] if isinstance(span, dict) else span.name


def _parent_id(span):
    return span.get("parent_id") if isinstance(span, dict) else span.parent_id


def _status(span):
    if isinstance(span, dict):
        return span.get("status", "ok")
    return span.status


def _attributes(span):
    if isinstance(span, dict):
        return span.get("attributes") or {}
    return span.attributes


def _duration_ms(span):
    if isinstance(span, dict):
        start = span.get("start_virtual_ms") or 0.0
        end = span.get("end_virtual_ms")
        return (end - start) if end is not None else 0.0
    return span.duration_virtual_ms


def _reference_anomaly_rules(spans):
    rules = []
    seen = set()
    for span in spans:
        if isinstance(span, dict):
            status = span.get("status", "ok")
            events = span.get("events")
        else:
            status = span.status
            events = span.events
        if status != "ok" and RULE_ERROR not in seen:
            seen.add(RULE_ERROR)
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
            if rule not in seen:
                seen.add(rule)
                rules.append(rule)
    return rules


class ReferencePipeline(TelemetryPipeline):
    """The earlier live path over the same counters, rollups, retention
    and slow rule state as :class:`TelemetryPipeline`."""

    def __init__(self, config):
        super().__init__(config)
        self._open = {}

    def attach(self, tracer, *, source=None):
        tracer.add_sink(functools.partial(self.record_keyed, source=source))
        if self.config.streaming:
            tracer.set_retention(False)

    def record_keyed(self, span, *, source=None):
        key = (source, span.trace_id)
        buffer = self._open.get(key)
        if buffer is None:
            buffer = self._open[key] = []
        buffer.append(span)
        if span.parent_id is None:
            del self._open[key]
            self._complete(source, span.trace_id, buffer)

    def _complete(self, source, trace_id, spans):
        root = next((span for span in spans if _parent_id(span) is None), spans[0])
        op = op_class(_name(root))
        duration = _duration_ms(root)
        error = _status(root) != "ok"
        attributes = _attributes(root)
        start = (
            (root.get("start_virtual_ms") or 0.0)
            if isinstance(root, dict)
            else root.start_virtual_ms
        )
        rules = _reference_anomaly_rules(spans)
        if self.tail.judge(op, duration):
            rules.append(RULE_SLOW)
        head = head_keep(self.config.seed, source, trace_id, self.config.rate_for(op))
        kept = head or bool(rules)
        self._c_spans.inc(len(spans))
        self._c_traces.inc()
        if rules:
            self._c_anomalous.inc()
        if head:
            self._c_head_kept.inc()
        self.rollups.observe(
            (
                op,
                str(attributes.get("platform", UNKNOWN)),
                str(attributes.get("region", UNKNOWN)),
            ),
            duration,
            error=error,
            t_ms=start + duration,
            exemplar=trace_ref(source, trace_id) if kept else None,
        )
        for observer in self._observers:
            observer(source, spans)
        if kept:
            self._c_kept.inc()
            if rules:
                self._c_anomalous_kept.inc()
                for rule in rules:
                    self.metrics.counter("obs.tail_kept", rule=rule).inc()
            before = self.retention.dropped
            self.retention.extend(
                record_from_span(span, source=source) for span in spans
            )
            evicted = self.retention.dropped - before
            if evicted:
                self._c_dropped.inc(evicted)
        else:
            self._c_traces_out.inc()
            self._c_sampled_out.inc(len(spans))

    @property
    def open_traces(self):
        return len(self._open)


# -- live tracer programs ------------------------------------------------------

NAMES = ("dispatch:post", "queue:post", "binding:post", "dispatch:get", "write:tracks")
EVENTS = tuple(
    [(name, {}) for name in sorted(ANOMALY_EVENTS)]
    + [
        ("breaker.transition", {"to_state": "open"}),
        ("breaker.transition", {"to_state": "closed"}),
        ("retry", {"attempt": 2}),
    ]
)
#: Mostly short steps with rare long ones, so the slow rule arms and fires.
ADVANCES = (1.0, 1.0, 1.0, 2.0, 3.0, 500.0)
MAX_DEPTH = 3

ATTRIBUTES = (
    {},
    {"platform": "android"},
    {"platform": "s60", "region": "eu", "tenant": 7},
)

trace_step = st.tuples(
    st.just("traces"),
    st.integers(0, 2),
    st.sampled_from(NAMES),
    st.lists(st.sampled_from(ADVANCES), min_size=1, max_size=12),
    st.booleans(),
)
# Whole traces and clean closes are listed twice to weigh them up.
step_strategy = st.one_of(
    trace_step,
    trace_step,
    st.tuples(
        st.just("open"),
        st.integers(0, 2),
        st.sampled_from(NAMES),
        st.sampled_from(ATTRIBUTES),
    ),
    st.tuples(st.just("close"), st.integers(0, 2), st.booleans()),
    st.tuples(st.just("close"), st.integers(0, 2), st.just(False)),
    st.tuples(st.just("event"), st.integers(0, 2), st.sampled_from(EVENTS)),
    st.tuples(st.just("advance"), st.sampled_from(ADVANCES)),
)


def _run(program, sources, pipelines, clock):
    """Drive live tracers through ``program`` with every pipeline attached
    to every tracer; yields after each step so callers can compare.  A
    ``traces`` step opens, advances and closes spans of one name back to
    back (whole traces when its tracer has nothing open), so an op class
    sees enough traces to arm the slow rule."""
    tracers = [Tracer(clock) for _ in sources]
    depths = [0] * len(tracers)
    for pipeline in pipelines:
        for tracer, source in zip(tracers, sources):
            pipeline.attach(tracer, source=source)
    for step in program:
        kind = step[0]
        if kind == "advance":
            clock.advance(step[1])
            yield
            continue
        index = step[1] % len(tracers)
        tracer = tracers[index]
        current = tracer.current_span
        if kind == "traces":
            for count, duration in enumerate(step[3], 1):
                span = tracer.start_span(step[2])
                clock.advance(duration)
                if step[4] and count == len(step[3]):
                    span.mark_error(RuntimeError("boom"))
                tracer.end_span(span)
        elif kind == "open" and depths[index] < MAX_DEPTH:
            tracer.start_span(step[2], **step[3])
            depths[index] += 1
        elif kind in ("open", "close") and current is not None:
            if kind == "close" and step[2]:
                current.mark_error(RuntimeError("boom"))
            tracer.end_span(current)
            depths[index] -= 1
        elif kind == "event":
            name, attributes = step[2]
            tracer.event(name, **attributes)
        yield
    for tracer in tracers:
        while tracer.current_span is not None:
            tracer.end_span(tracer.current_span)


@settings(max_examples=150, deadline=None)
@given(
    program=st.lists(step_strategy, min_size=1, max_size=160),
    sources=st.lists(
        st.sampled_from([None, "agent-1", "agent-2", "runtime"]),
        min_size=1, max_size=3, unique=True,
    ),
    rate=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
    streaming=st.booleans(),
    max_series=st.sampled_from([2, 64]),
    span_capacity=st.sampled_from([8, 4096]),
    observe=st.booleans(),
)
def test_lean_path_matches_the_reference(
    program, sources, rate, seed, streaming, max_series, span_capacity, observe
):
    config = PipelineConfig(
        default_rate=rate,
        seed=seed,
        streaming=streaming,
        max_series=max_series,
        span_capacity=span_capacity,
        slow_trace_min_count=5,
    )
    lean, reference = TelemetryPipeline(config), ReferencePipeline(config)
    lean_calls, reference_calls = [], []
    if observe:
        lean.add_observer(lambda source, spans: lean_calls.append((source, spans)))
        reference.add_observer(
            lambda source, spans: reference_calls.append((source, spans))
        )
    for _ in _run(program, sources, [lean, reference], SimulatedClock()):
        assert lean.open_traces == reference.open_traces
    assert lean.accounting() == reference.accounting()
    assert lean.rollups.to_dict() == reference.rollups.to_dict()
    assert lean.export_jsonl() == reference.export_jsonl()
    assert lean.metrics.snapshot() == reference.metrics.snapshot()
    for name in NAMES:
        assert lean.tail.threshold(op_class(name)) == reference.tail.threshold(
            op_class(name)
        )
    assert lean_calls == reference_calls


# -- per-tracer buffers ---------------------------------------------------------


class TestPerTracerBuffers:
    def test_colliding_trace_ids_under_one_source_stay_apart(self):
        """Two tracers attached under the default ``source=None`` both
        number their traces from 1.  A failed trace of one must be kept
        whole, and a healthy trace of the other dropped, however their
        spans interleave."""
        clock = SimulatedClock()
        pipeline = TelemetryPipeline(PipelineConfig(default_rate=0.0))
        a, b = Tracer(clock), Tracer(clock)
        pipeline.attach(a)
        pipeline.attach(b)
        post = a.start_span("dispatch:post")
        binding = a.start_span("binding:post")
        binding.mark_error(RuntimeError("refused"))
        a.end_span(binding)
        with b.span("dispatch:get"):
            clock.advance(1.0)
        a.end_span(post)
        assert post.trace_id == binding.trace_id == 1
        kept = [json.loads(line) for line in pipeline.export_jsonl().splitlines()]
        assert [record["name"] for record in kept] == ["binding:post", "dispatch:post"]
        accounting = pipeline.accounting()
        assert accounting["traces_total"] == 2
        assert accounting["anomalous_kept"] == 1
        assert accounting["traces_sampled_out"] == 1
        assert accounting["sampled_out"] == 1

    def test_open_traces_counts_buffers_holding_spans(self):
        clock = SimulatedClock()
        pipeline = TelemetryPipeline(PipelineConfig())
        a, b = Tracer(clock), Tracer(clock)
        pipeline.attach(a, source="a")
        pipeline.attach(b, source="b")
        root = a.start_span("dispatch:post")
        assert pipeline.open_traces == 0  # nothing has finished yet
        with a.span("binding:post"):
            pass
        assert pipeline.open_traces == 1
        with b.span("dispatch:get"):
            pass
        assert pipeline.open_traces == 1
        a.end_span(root)
        assert pipeline.open_traces == 0
        assert pipeline.accounting()["traces_total"] == 2

    def test_observers_get_a_fresh_span_list_per_trace(self):
        clock = SimulatedClock()
        pipeline = TelemetryPipeline(PipelineConfig(default_rate=0.0))
        tracer = Tracer(clock)
        pipeline.attach(tracer)
        seen = []
        pipeline.add_observer(lambda source, spans: seen.append(spans))
        for name in ("dispatch:post", "dispatch:get"):
            with tracer.span(name):
                with tracer.span("binding:" + name):
                    pass
        assert [[span.name for span in spans] for spans in seen] == [
            ["binding:dispatch:post", "dispatch:post"],
            ["binding:dispatch:get", "dispatch:get"],
        ]
