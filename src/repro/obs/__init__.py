"""The observability plane: tracing, metrics and trace analysis.

One :class:`Observability` hub per device bundles:

* a tracer — :class:`~repro.obs.tracer.Tracer` when enabled, the shared
  :data:`~repro.obs.tracer.NOOP_TRACER` otherwise;
* a :class:`~repro.obs.metrics.MetricsRegistry` — always live, because
  the resilience counters and fault counts must work even when tracing
  is off (they have been part of the chaos contract since PR 1).

The hub is attached at device construction
(``MobileDevice(..., observability=Observability())``) and flows to
every mounted platform, the fault injector, and — via the proxy
factory — every proxy and its resilience runtime.  The default hub is
disabled: instrumentation sites check ``tracer.enabled`` first, so the
Figure-10 invocation path pays one attribute read and a branch.

Span vocabulary (see ``docs/OBSERVABILITY.md``):

``dispatch:<op>`` → ``resilience:<op>`` → ``binding:<op>`` →
``substrate:<native-op>`` / ``bridge:<method>``, with resilience events
(``retry``, ``timeout``, ``circuit.rejected``, ``fallback.served``,
``breaker.transition``) and fault events (``fault.injected``) attached
to whichever span is in flight.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.exporters import export_jsonl, render_metrics_text, render_span_tree
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_label,
)
from repro.obs.span import Span, SpanEvent
from repro.obs.tracer import NOOP_TRACER, NoopTracer, Tracer
from repro.obs.flight import FlightRecorder, render_flight_text
from repro.obs.timeline import ShardTimelines
from repro.obs.timeseries import TimeSeries, TimeSeriesSampler
from repro.obs.analyze import (
    CausalReport,
    CriticalPath,
    LayerDelta,
    OperationProfile,
    OverheadProfile,
    ProfileDiff,
    SloEngine,
    SloSpec,
    SloStatus,
    collapsed_stacks,
    diff_profiles,
    load_profile,
    parse_jsonl,
    render_causal_text,
    render_profile_text,
    top_spans_text,
)
from repro.obs.pipeline import (
    HealthReport,
    PipelineConfig,
    RedRollups,
    SpanRetention,
    TelemetryPipeline,
    render_health_text,
)
from repro.util.clock import SimulatedClock


class Observability:
    """One device's tracing + metrics hub.

    Parameters
    ----------
    enabled:
        ``True`` builds a recording tracer; ``False`` (the deviceless
        default) attaches the shared no-op tracer.  The metrics
        registry is live either way.
    clock:
        Virtual clock for span stamps; usually left ``None`` and bound
        by the adopting device.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock) if enabled else NOOP_TRACER
        self._clock = clock
        #: Optional metric time-series sampler (see ``install_sampler``).
        self.sampler: Optional[TimeSeriesSampler] = None
        #: Optional flight recorder (see ``install_flight_recorder``).
        self.flight: Optional[FlightRecorder] = None
        #: Optional telemetry pipeline (see ``install_pipeline``).
        self.pipeline: Optional[TelemetryPipeline] = None

    @classmethod
    def disabled(cls) -> "Observability":
        """The default hub: live metrics, no-op tracer."""
        return cls(enabled=False)

    @property
    def enabled(self) -> bool:
        """Whether tracing is recording (metrics always are)."""
        return self.tracer.enabled

    def bind_clock(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self.tracer.bind_clock(clock)
        if self.sampler is not None:
            self.sampler.bind_clock(clock)
        if self.flight is not None:
            self.flight.bind_clock(clock)

    # -- concurrency observability --------------------------------------------

    def install_sampler(self) -> TimeSeriesSampler:
        """Attach a :class:`~repro.obs.timeseries.TimeSeriesSampler`
        over this hub's registry (idempotent: returns the existing one).
        Runtime components call :meth:`tick` at their scheduling points;
        with no sampler installed a tick is one ``None`` check."""
        if self.sampler is None:
            self.sampler = TimeSeriesSampler(self.metrics, clock=self._clock)
            if self.flight is not None:
                self.sampler.add_sink(self.flight.record_sample)
        return self.sampler

    def install_flight_recorder(self) -> FlightRecorder:
        """Attach a :class:`~repro.obs.flight.FlightRecorder` shadowing
        this hub's tracer (and sampler, when present).  Idempotent."""
        if self.flight is None:
            self.flight = FlightRecorder(clock=self._clock)
            self.flight.attach(self.tracer)
            if self.sampler is not None:
                self.sampler.add_sink(self.flight.record_sample)
        return self.flight

    def install_pipeline(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        source: Optional[str] = None,
    ) -> TelemetryPipeline:
        """Attach a :class:`~repro.obs.pipeline.TelemetryPipeline` as a
        sink of this hub's tracer, sharing this hub's metrics registry
        (the ``obs.*`` accounting series land next to everything else).
        Idempotent: returns the existing pipeline.  With
        ``config.streaming`` the tracer stops retaining spans and the
        pipeline's bounded ring becomes the only span storage."""
        if self.pipeline is None:
            self.pipeline = TelemetryPipeline(config, metrics=self.metrics)
            self.pipeline.attach(self.tracer, source=source)
        return self.pipeline

    def tick(self) -> int:
        """Sample tracked time series at the current virtual instant
        (runtime scheduling hooks call this unconditionally)."""
        if self.sampler is None:
            return 0
        return self.sampler.tick()

    # -- convenience export surface -----------------------------------------

    def export_jsonl(self) -> str:
        """Finished spans as deterministic JSON Lines."""
        return export_jsonl(self.tracer.finished_spans())

    def render_trace(self) -> str:
        """Human-readable span forest."""
        return render_span_tree(self.tracer.spans)

    def render_metrics(self) -> str:
        """Human-readable metric dump."""
        return render_metrics_text(self.metrics)


__all__ = [
    "CausalReport",
    "Counter",
    "CriticalPath",
    "FlightRecorder",
    "Gauge",
    "HealthReport",
    "Histogram",
    "LayerDelta",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NoopTracer",
    "Observability",
    "OperationProfile",
    "OverheadProfile",
    "PipelineConfig",
    "ProfileDiff",
    "RedRollups",
    "SloEngine",
    "SloSpec",
    "SloStatus",
    "ShardTimelines",
    "Span",
    "SpanEvent",
    "SpanRetention",
    "TelemetryPipeline",
    "TimeSeries",
    "TimeSeriesSampler",
    "Tracer",
    "collapsed_stacks",
    "diff_profiles",
    "export_jsonl",
    "load_profile",
    "parse_jsonl",
    "quantile_label",
    "render_causal_text",
    "render_flight_text",
    "render_health_text",
    "render_metrics_text",
    "render_profile_text",
    "render_span_tree",
    "top_spans_text",
]
