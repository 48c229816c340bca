"""The telemetry pipeline: tracer sink → sampling → rollups → retention.

:class:`TelemetryPipeline` is the single choke point all spans flow
through on their way out of a tracer.  Per completed trace it:

1. feeds the RED rollups (before any sampling — rollup counts always
   equal the unsampled truth);
2. applies the head-sampling decision and the tail keep rules;
3. either converts the trace to records and retains it in the bounded
   ring, or drops it with explicit ``obs.sampled_out`` accounting;
4. notifies observers (the fleet's SLO engine subscribes here so SLO
   evaluation sees every trace even when the tracer itself retains
   nothing).

Live, each attached tracer gets one open-trace buffer, and a trace is
decided when its root finishes.  The same pipeline runs offline:
``ingest_records`` replays an exported JSONL trace through the same
decision, which is what the ``python -m repro.obs health`` console
does.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.pipeline.config import PipelineConfig, op_class
from repro.obs.pipeline.records import SpanLike, record_from_span
from repro.obs.pipeline.retention import SpanRetention
from repro.obs.pipeline.rollup import UNKNOWN, RedRollups
from repro.obs.pipeline.sampler import RULE_SLOW, TailRules, anomaly_rules, head_keep
from repro.obs.span import Span

PIPELINE_SCHEMA = "repro.obs.pipeline/v1"

#: ``(source, spans)`` callback fired for every completed trace.
TraceObserver = Callable[[Optional[str], List[SpanLike]], None]


class _TraceBuffer:
    """The open trace of one attached tracer: the spans it has finished
    since its last root did."""

    __slots__ = ("source", "spans")

    def __init__(self, source: Optional[str]) -> None:
        self.source = source
        self.spans: List[Span] = []


def trace_ref(source: Optional[str], trace_id: int) -> str:
    """The exemplar reference a rollup bucket stores for a kept trace."""
    return f"{source}:{trace_id}" if source else str(trace_id)


class TelemetryPipeline:
    """See the module docstring.  One pipeline may serve many tracers
    (a fleet attaches every agent's), each tagged by its ``source``."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if self.config.max_metric_series is not None:
            self.metrics.set_cardinality_limit(self.config.max_metric_series)
        self.rollups = RedRollups(
            max_series=self.config.max_series, metrics=self.metrics
        )
        self.retention = SpanRetention(self.config.span_capacity)
        self.tail = TailRules(min_count=self.config.slow_trace_min_count)
        #: One open-trace buffer per attached tracer.
        self._buffers: List[_TraceBuffer] = []
        self._observers: List[TraceObserver] = []
        # Eager counters so accounting reads zero instead of absent.
        counter = self.metrics.counter
        self._c_spans = counter("obs.spans_total")
        self._c_traces = counter("obs.traces_total")
        self._c_kept = counter("obs.traces_kept")
        self._c_traces_out = counter("obs.traces_sampled_out")
        self._c_sampled_out = counter("obs.sampled_out")
        self._c_dropped = counter("obs.dropped_spans")
        self._c_anomalous = counter("obs.anomalous_traces")
        self._c_anomalous_kept = counter("obs.anomalous_kept")
        self._c_head_kept = counter("obs.head_kept")

    # -- ingestion -----------------------------------------------------------

    def attach(self, tracer, *, source: Optional[str] = None) -> None:
        """Subscribe to a tracer's finished spans.

        ``source`` tags the tracer's retained records and seeds its head
        decisions.  Each attached tracer gets its own open-trace buffer,
        so tracers whose trace ids collide never mix, even under one
        ``source``.  With ``config.streaming`` the tracer is flipped out
        of retention: this ring becomes the only span storage and
        tracer memory stays O(deepest trace).
        """
        if not getattr(tracer, "enabled", False):
            return
        buffer = _TraceBuffer(source)
        self._buffers.append(buffer)
        tracer.add_sink(functools.partial(self.record_span, buffer))
        if self.config.streaming:
            tracer.set_retention(False)

    def record_span(self, buffer: _TraceBuffer, span: Span) -> None:
        """The live sink: buffer until the trace's root finishes.

        One tracer's traces never interleave on its single span stack
        and sinks fire in completion order, so the root (``parent_id is
        None``) is the last span of its trace to arrive, and everything
        in the buffer belongs to it.
        """
        spans = buffer.spans
        spans.append(span)
        if span.parent_id is None:
            buffer.spans = []
            start = span.start_virtual_ms
            self._decide(
                buffer.source,
                span.trace_id,
                spans,
                span.name,
                start,
                span.end_virtual_ms - start,
                span.status,
                span.attributes,
            )

    def ingest_records(self, records: Iterable[Dict[str, Any]]) -> int:
        """Offline replay of exported span records (JSONL order: start
        order, roots first).  Groups by ``(source, trace_id)`` and runs
        each trace through the same decision as the live sink.  Returns
        the number of traces processed.
        """
        groups: Dict[Tuple[Optional[str], int], List[SpanLike]] = {}
        for record in records:
            key = (record.get("source"), record["trace_id"])
            groups.setdefault(key, []).append(record)
        for (source, trace_id), spans in groups.items():
            root = next(
                (span for span in spans if span.get("parent_id") is None), spans[0]
            )
            start = root.get("start_virtual_ms") or 0.0
            end = root.get("end_virtual_ms")
            self._decide(
                source,
                trace_id,
                spans,
                root["name"],
                start,
                (end - start) if end is not None else 0.0,
                root.get("status", "ok"),
                root.get("attributes") or {},
            )
        return len(groups)

    def add_observer(self, observer: TraceObserver) -> None:
        """Register a per-completed-trace callback (fired pre-sampling —
        observers see every trace, kept or not)."""
        self._observers.append(observer)

    # -- the decision path ---------------------------------------------------

    def _decide(
        self,
        source: Optional[str],
        trace_id: int,
        spans: List[SpanLike],
        name: str,
        start: float,
        duration: float,
        status: str,
        attributes: Dict[str, Any],
    ) -> None:
        """Sample, roll up, notify and retain one completed trace, given
        its spans and its root's fields (the one path for live and
        offline traces)."""
        op = op_class(name)
        rules = anomaly_rules(spans)
        if self.tail.judge(op, duration):
            rules.append(RULE_SLOW)

        config = self.config
        head = head_keep(config.seed, source, trace_id, config.rate_for(op))
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
            status != "ok",
            start + duration,
            trace_ref(source, trace_id) if kept else None,
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

    # -- reading -------------------------------------------------------------

    @property
    def open_traces(self) -> int:
        """Traces buffered but not yet completed (root still open)."""
        return sum(1 for buffer in self._buffers if buffer.spans)

    @property
    def dropped_spans(self) -> int:
        return self.retention.dropped

    @property
    def sampled_out(self) -> int:
        return int(self.metrics.total("obs.sampled_out"))

    @property
    def cardinality_overflow(self) -> int:
        return int(self.metrics.total("obs.cardinality_overflow"))

    @property
    def tail_misses(self) -> int:
        """Anomalous traces not retained — structurally zero (tail rules
        force retention); the health gate asserts it stayed zero."""
        return int(
            self.metrics.total("obs.anomalous_traces")
            - self.metrics.total("obs.anomalous_kept")
        )

    def accounting(self) -> Dict[str, int]:
        total = self.metrics.total
        return {
            "spans_total": int(total("obs.spans_total")),
            "traces_total": int(total("obs.traces_total")),
            "traces_kept": int(total("obs.traces_kept")),
            "traces_sampled_out": int(total("obs.traces_sampled_out")),
            "sampled_out": int(total("obs.sampled_out")),
            "dropped_spans": int(total("obs.dropped_spans")),
            "head_kept": int(total("obs.head_kept")),
            "tail_kept": int(total("obs.tail_kept")),
            "anomalous_traces": int(total("obs.anomalous_traces")),
            "anomalous_kept": int(total("obs.anomalous_kept")),
            "tail_misses": self.tail_misses,
            "cardinality_overflow": self.cardinality_overflow,
            "open_traces": self.open_traces,
        }

    def export_jsonl(self) -> str:
        """The retained (sampled) trace as deterministic JSON Lines."""
        return self.retention.export_jsonl()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PIPELINE_SCHEMA,
            "config": self.config.to_dict(),
            "accounting": self.accounting(),
            "rollups": self.rollups.to_dict(),
            "retention": self.retention.to_dict(),
        }
