"""Pipeline configuration: sampling rates, bounds, and determinism knobs.

One frozen dataclass carries everything the pipeline needs so that a
config can be logged, diffed, and replayed — the keep/drop decision for
any trace is a pure function of ``(config.seed, source, trace_id)`` and
the per-op-class rate, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigurationError


def op_class(name: str) -> str:
    """The op class a span name samples under.

    Span names are ``layer:operation`` (``dispatch:notify``,
    ``queue:capture``); the class is the operation so rates configured
    per op apply across layers and platforms.  Names without a colon
    class as themselves.
    """
    _, sep, rest = name.partition(":")
    return rest if sep else name


@dataclass(frozen=True)
class PipelineConfig:
    """Telemetry pipeline settings.

    Parameters
    ----------
    default_rate:
        Head-sampling keep probability in ``[0, 1]`` applied to op
        classes without an explicit entry in ``rates``.  ``1.0`` keeps
        everything (sampling off).
    rates:
        Per-op-class overrides, e.g. ``{"heartbeat": 0.001}``.
    seed:
        Seed folded into the keep/drop hash — same seed, same traffic,
        same decisions, byte-identical exports.
    streaming:
        When ``True``, attaching the pipeline flips the tracer out of
        retention (spans are discarded once their trace completes and
        the pipeline's ring is the only span storage) — the
        production-scale mode.
    span_capacity:
        Ring-buffer capacity, in spans, for kept traces
        (:class:`~repro.obs.pipeline.retention.SpanRetention`).
    max_series:
        Rollup key-cardinality bound: distinct ``(op, platform,
        region)`` keys beyond this collapse into the ``other=true``
        series with ``obs.cardinality_overflow`` accounting.
    max_metric_series:
        When set, installed on the attached :class:`MetricsRegistry` as
        its ``max_series_per_metric`` label-cardinality guard.
    slow_trace_min_count:
        Observations an op class must accumulate before the bucketed
        p99 slow-trace tail rule arms (too few samples would make the
        estimate — and keep decisions — noise).

    The rollup duration histograms and the slow-trace rule's per-op-class
    histograms count into :data:`~repro.obs.metrics.DEFAULT_BUCKETS`.
    """

    default_rate: float = 1.0
    rates: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    streaming: bool = False
    span_capacity: int = 4096
    max_series: int = 64
    max_metric_series: Optional[int] = None
    slow_trace_min_count: int = 32

    def __post_init__(self) -> None:
        for label, rate in [("default_rate", self.default_rate), *self.rates.items()]:
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"sampling rate {label!r} must be in [0, 1], got {rate}"
                )
        if self.span_capacity < 1:
            raise ConfigurationError("span_capacity must be >= 1")
        if self.max_series < 1:
            raise ConfigurationError("max_series must be >= 1")
        if self.max_metric_series is not None and self.max_metric_series < 1:
            raise ConfigurationError("max_metric_series must be >= 1")
        if self.slow_trace_min_count < 5:
            raise ConfigurationError("slow_trace_min_count must be >= 5")
        object.__setattr__(self, "rates", dict(self.rates))

    def rate_for(self, op: str) -> float:
        """The head-sampling rate for one op class."""
        return self.rates.get(op, self.default_rate)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "default_rate": self.default_rate,
            "rates": dict(sorted(self.rates.items())),
            "seed": self.seed,
            "streaming": self.streaming,
            "span_capacity": self.span_capacity,
            "max_series": self.max_series,
            "max_metric_series": self.max_metric_series,
            "slow_trace_min_count": self.slow_trace_min_count,
        }
