"""Virtual-clock metric time series: bounded ring buffers over gauges
and counters.

The metrics registry answers "what is the value now"; production
debugging needs "what was it over time" — was the queue depth a plateau
or a spike, when did the breaker trip relative to the shed burst?  The
:class:`TimeSeriesSampler` turns selected registry series into bounded
``(t_virtual_ms, value)`` sequences, sampled at the runtime's own
scheduling ticks (dispatcher submit/drain/settle, cooperative-scheduler
drains), so a burst's internal shape is visible rather than just its
endpoints.

Determinism: timestamps are virtual-clock reads, the ring buffers are
plain deques, and :meth:`TimeSeriesSampler.tracked_series` is sorted
by metric then labels — two identically-seeded runs sample identical
time series.

Same-instant semantics: many runtime ticks can land on one virtual
instant (a submission burst at t=0).  A series keeps **one point per
instant**, updated in place to the latest value, while ``peak`` tracks
the largest value seen at (or carried into) that instant — so a queue
that spiked to 64 and drained back to 12 inside one tick still shows
``peak=64``.
"""

from __future__ import annotations

import collections
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry, _labels_key

#: A single sample: (t_virtual_ms, value, peak-at-this-instant).
Point = Tuple[float, float, float]

#: Ring-buffer bound per series (oldest points evicted; the eviction
#: count is kept as ``dropped``).
CAPACITY = 512

#: Tolerance for "the same virtual instant".
_EPS = 1e-9


class TimeSeries:
    """One tracked metric series' bounded sample history."""

    __slots__ = ("metric", "labels", "points", "dropped")

    def __init__(self, metric: str, labels: Dict[str, str]) -> None:
        self.metric = metric
        self.labels = dict(labels)
        self.points: Deque[Point] = collections.deque(maxlen=CAPACITY)
        #: Samples evicted by the ring bound (oldest-first).
        self.dropped = 0

    def record(self, t_ms: float, value: float) -> bool:
        """Fold one observation in; returns True when a new point was
        appended (False for an in-place same-instant update)."""
        if self.points and abs(self.points[-1][0] - t_ms) <= _EPS:
            _, _, peak = self.points[-1]
            self.points[-1] = (t_ms, value, max(peak, value))
            return False
        if len(self.points) == CAPACITY:
            self.dropped += 1
        self.points.append((t_ms, value, value))
        return True

    def values(self) -> List[float]:
        return [value for _, value, _ in self.points]

    def peaks(self) -> List[float]:
        return [peak for _, _, peak in self.points]


class TimeSeriesSampler:
    """Samples selected registry series against the virtual clock, one
    point per series per distinct virtual instant.

    Parameters
    ----------
    metrics:
        The registry to read from (values only; never mutated).
    clock:
        Virtual clock stamping samples; may be bound later
        (:meth:`bind_clock`) — until then samples stamp 0.0.
    """

    def __init__(self, metrics: MetricsRegistry, *, clock=None) -> None:
        self._metrics = metrics
        self._clock = clock
        #: (metric name, labels subset) selectors, in track order.
        self._selectors: List[Tuple[str, Dict[str, str]]] = []
        self._series: Dict[Tuple[str, Any], TimeSeries] = {}
        self._sinks: List[Callable[[str, Dict[str, str], float, float], None]] = []

    def bind_clock(self, clock) -> None:
        self._clock = clock

    def add_sink(
        self, sink: Callable[[str, Dict[str, str], float, float], None]
    ) -> None:
        """Register a callable invoked as ``sink(metric, labels, t, value)``
        for every appended point (the flight recorder subscribes here)."""
        self._sinks.append(sink)

    # -- selection -----------------------------------------------------------

    def track(self, metric: str, **labels: Any) -> None:
        """Select every series of ``metric`` whose labels contain the
        given subset (no labels = every series of the metric)."""
        self._selectors.append(
            (metric, {key: str(value) for key, value in labels.items()})
        )

    def tracked_series(self) -> List[TimeSeries]:
        """Every series sampled so far, in deterministic sorted order."""
        return [self._series[key] for key in sorted(self._series)]

    def series(self, metric: str, **labels: Any) -> Optional[TimeSeries]:
        """One series' history (exact label match), or ``None``."""
        key = (metric, _labels_key({k: str(v) for k, v in labels.items()}))
        return self._series.get(key)

    # -- sampling ------------------------------------------------------------

    def _now(self) -> float:
        return self._clock.now_ms if self._clock is not None else 0.0

    @staticmethod
    def _value_of(instrument) -> float:
        # Histograms are trackable by their observation count; gauges
        # and counters by their value.
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return float(instrument.value)

    def tick(self) -> int:
        """Sample every selected series at the current virtual instant;
        returns the number of points appended (in-place same-instant
        updates return 0)."""
        now = self._now()
        appended = 0
        for metric, subset in self._selectors:
            for instrument in self._metrics.collect(metric):
                if any(
                    instrument.labels.get(key) != value
                    for key, value in subset.items()
                ):
                    continue
                key = (metric, _labels_key(instrument.labels))
                series = self._series.get(key)
                if series is None:
                    series = self._series[key] = TimeSeries(
                        metric, instrument.labels
                    )
                value = self._value_of(instrument)
                if series.record(now, value):
                    appended += 1
                    for sink in self._sinks:
                        sink(metric, series.labels, now, value)
        return appended

    def render_text(self) -> str:
        """Compact operator view: one line per series with its last
        value, peak, and point count."""
        lines: List[str] = []
        for series in self.tracked_series():
            labels = ",".join(
                f"{key}={value}" for key, value in sorted(series.labels.items())
            )
            name = f"{series.metric}{{{labels}}}" if labels else series.metric
            if series.points:
                t, value, _ = series.points[-1]
                peak = max(series.peaks())
                lines.append(
                    f"{name} points={len(series.points)} last={value:g}@{t:.1f}ms "
                    f"peak={peak:g} dropped={series.dropped}"
                )
            else:
                lines.append(f"{name} points=0")
        return "\n".join(lines)
