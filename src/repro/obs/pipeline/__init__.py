"""The telemetry pipeline: production-scale sampling between the tracer
and the exporters/analyzers.

Tracing every span of every invocation into unbounded lists cannot
survive millions of users — the observability plane itself becomes the
bottleneck.  This package bounds telemetry at the source while
guaranteeing that **every anomaly is captured**:

* :mod:`~repro.obs.pipeline.sampler` — deterministic seeded-hash head
  sampling per trace id (rate configurable per op class) plus the
  tail-based keep rules that always retain anomalous traces (error
  status, ``queue.shed`` / ``queue.throttled``, breaker opens,
  ``slo.breach``, ``causal.violation``, or a duration above the op
  class's p99, read from its histogram's buckets);
* :mod:`~repro.obs.pipeline.rollup` — streaming RED rollups
  (rate/errors/duration) keyed by ``(op, platform, region)``
  with exemplar trace ids attached to histogram buckets, fed from
  **every** trace before sampling so rollup counts always equal the
  unsampled counts;
* :mod:`~repro.obs.pipeline.retention` — the bounded ring buffer kept
  traces land in, with explicit ``obs.dropped_spans`` accounting;
* :mod:`~repro.obs.pipeline.pipeline` — :class:`TelemetryPipeline`, the
  tracer sink tying the above together (``obs.*`` metric namespace);
* :mod:`~repro.obs.pipeline.health` — the fleet health console behind
  ``python -m repro.obs health`` fusing rollups, SLO state, admission
  outcomes, flight incidents and the causal audit into one report with
  a ``--gate``.

Everything is deterministic: the keep/drop decision is a pure function
of ``(seed, source, trace_id)``, rollups are pure functions of the
trace stream, and same-seed runs export byte-identical sampled traces.
"""

from repro.obs.pipeline.config import PipelineConfig
from repro.obs.pipeline.health import (
    HEALTH_SCHEMA,
    HealthReport,
    render_health_text,
)
from repro.obs.pipeline.pipeline import TelemetryPipeline
from repro.obs.pipeline.retention import SpanRetention
from repro.obs.pipeline.rollup import RedRollups, RollupSeries
from repro.obs.pipeline.sampler import (
    ANOMALY_EVENTS,
    TailRules,
    anomaly_rules,
    head_keep,
)

__all__ = [
    "ANOMALY_EVENTS",
    "HEALTH_SCHEMA",
    "HealthReport",
    "PipelineConfig",
    "RedRollups",
    "RollupSeries",
    "SpanRetention",
    "TailRules",
    "TelemetryPipeline",
    "anomaly_rules",
    "head_keep",
    "render_health_text",
]
