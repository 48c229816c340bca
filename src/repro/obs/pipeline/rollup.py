"""Streaming RED rollups: rate / errors / duration, with exemplars.

One :class:`RollupSeries` per ``(op, platform, region)`` key
streams request counts, error counts and a fixed-bucket duration
histogram whose percentiles are read from its buckets — O(1) memory per
series, O(config) series total (the key bound collapses excess keys
into one ``other=true`` series).

Rollups are fed from **every** completed trace *before* the sampling
decision, which is the pipeline's core accounting guarantee: rollup
request/error counts always equal what an unsampled run would report,
no matter how aggressive the head rate is.  Sampling only affects
*exemplars* — each histogram bucket remembers the most recent **kept**
trace id that landed in it, so an operator can drill from a latency
bucket straight back to a retained trace.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry

#: Rollup key: (op, platform, region).  Not the tenant: a fleet's tenant
#: is its agent id, which would give every agent series of its own.
RollupKey = Tuple[str, str, str]

#: Placeholder for key dimensions a trace doesn't carry.
UNKNOWN = "-"


class RollupSeries(Histogram):
    """RED accumulation for one rollup key: a duration histogram.

    Buckets, count, sum, min, max and the read-time percentiles are the
    registry :class:`~repro.obs.metrics.Histogram`'s own.  A series adds
    the error count, the latest kept trace per bucket (its exemplar) and
    the observed window, so its ``observe`` also takes the trace's error
    flag and end time.
    """

    __slots__ = (
        "op", "platform", "region", "collapsed",
        "errors", "exemplars", "first_ms", "last_ms",
    )

    def __init__(self, key: RollupKey, *, collapsed: bool = False) -> None:
        self.op, self.platform, self.region = key
        self.collapsed = collapsed
        labels = (
            {"other": "true"}
            if collapsed
            else {"op": self.op, "platform": self.platform, "region": self.region}
        )
        super().__init__("obs.rollup", labels, DEFAULT_BUCKETS)
        self.errors = 0
        #: Latest kept trace ref per bucket; index ``len(bounds)`` is +Inf.
        self.exemplars: List[Optional[str]] = [None] * (len(self.bounds) + 1)
        self.first_ms: Optional[float] = None
        self.last_ms: Optional[float] = None

    def observe(
        self,
        duration_ms: float,
        error: bool,
        t_ms: float,
        exemplar: Optional[str] = None,
    ) -> None:
        index = Histogram.observe(self, duration_ms)
        if exemplar is not None:
            self.exemplars[index] = exemplar
        if error:
            self.errors += 1
        if self.first_ms is None:
            self.first_ms = t_ms
        self.last_ms = t_ms

    # -- reading -------------------------------------------------------------

    @property
    def key(self) -> RollupKey:
        return (self.op, self.platform, self.region)

    @property
    def error_ratio(self) -> float:
        return self.errors / self.count if self.count else 0.0

    def rate_per_s(self) -> float:
        """Requests per virtual second over the observed window (count
        itself when the window is degenerate)."""
        if self.first_ms is None or self.last_ms is None:
            return 0.0
        window_ms = self.last_ms - self.first_ms
        if window_ms <= 0.0:
            return float(self.count)
        return self.count / (window_ms / 1_000.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "labels": dict(self.labels),
            "count": self.count,
            "errors": self.errors,
            "error_ratio": round(self.error_ratio, 6),
            "rate_per_s": round(self.rate_per_s(), 6),
            "duration_sum_ms": round(self.sum, 6),
            "percentiles": {
                label: round(value, 6)
                for label, value in self.percentiles().items()
            },
            "buckets": [
                {"le": "+Inf" if bound == float("inf") else bound,
                 "count": running, "exemplar": exemplar}
                for (bound, running), exemplar in zip(
                    self.cumulative(), self.exemplars
                )
            ],
        }


class RedRollups:
    """The bounded series store.

    ``max_series`` caps distinct keys; observations for keys beyond the
    cap fold into one ``other=true`` series, counted in
    ``collapsed_observations`` and — when a registry is attached — the
    ``obs.cardinality_overflow{metric="obs.rollup"}`` counter, so the
    health gate can see the bound was hit.
    """

    def __init__(
        self,
        *,
        max_series: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.max_series = max_series
        self._metrics = metrics
        self._series: Dict[RollupKey, RollupSeries] = {}
        self._collapsed: Optional[RollupSeries] = None
        #: The registry's overflow counter, resolved on the first
        #: collapse (so the series appears only once the bound is hit).
        self._overflow: Optional[Counter] = None
        self.collapsed_observations = 0

    def observe(
        self,
        key: RollupKey,
        duration_ms: float,
        error: bool,
        t_ms: float,
        exemplar: Optional[str] = None,
    ) -> RollupSeries:
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                self.collapsed_observations += 1
                if self._metrics is not None:
                    if self._overflow is None:
                        self._overflow = self._metrics.counter(
                            "obs.cardinality_overflow", metric="obs.rollup"
                        )
                    self._overflow.inc()
                if self._collapsed is None:
                    self._collapsed = RollupSeries(
                        ("other", "other", "other"), collapsed=True
                    )
                series = self._collapsed
            else:
                series = self._series[key] = RollupSeries(key)
        series.observe(duration_ms, error, t_ms, exemplar)
        return series

    # -- reading -------------------------------------------------------------

    def series(self) -> List[RollupSeries]:
        """Every series in sorted key order, the collapsed one last."""
        ordered = [self._series[key] for key in sorted(self._series)]
        if self._collapsed is not None:
            ordered.append(self._collapsed)
        return ordered

    @property
    def requests(self) -> int:
        return sum(series.count for series in self.series())

    @property
    def errors(self) -> int:
        return sum(series.errors for series in self.series())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "series": [series.to_dict() for series in self.series()],
            "distinct_keys": len(self._series),
            "max_series": self.max_series,
            "collapsed_observations": self.collapsed_observations,
            "requests": self.requests,
            "errors": self.errors,
        }
