"""The metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` lives on each device's observability hub
and is shared by the fault injector, every proxy's resilience runtime,
and the substrate instrumentation.  Instruments are identified by
``(name, labels)`` — asking twice for the same pair returns the same
instrument, so call sites never need to cache handles (though hot paths
may, cheaply).

Percentiles have one rank definition, the nearest-rank order
statistic (:func:`nearest_rank`).  Live streams read it from histogram
buckets (:meth:`Histogram.quantile`); offline reports that hold every
sample read it exactly.

Everything is deterministic: no timestamps, no randomness; a snapshot
is a pure function of the increments that produced it, serialized in
sorted order.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: The quantiles every latency stream reports.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: Default histogram bucket upper bounds (milliseconds-flavoured).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 30_000.0,
)

LabelsKey = Tuple[Tuple[str, str], ...]


def quantile_label(q: float) -> str:
    """``0.5 -> "p50"``, ``0.99 -> "p99"``, ``0.999 -> "p99.9"``."""
    scaled = q * 100.0
    if abs(scaled - round(scaled)) < 1e-9:
        return f"p{int(round(scaled))}"
    return f"p{scaled:g}"


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The exact quantile ``q`` of a sorted sequence (0.0 when empty).

    The nearest-rank order statistic: the ``k``-th smallest value for
    the smallest ``k >= q * len(ordered)``, the rank
    :meth:`Histogram.quantile` locates among its buckets.
    """
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _labels_key(labels: Dict[str, Any]) -> LabelsKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing integer-or-float count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (e.g. open breakers, queue depth)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram (cumulative counts, like Prometheus).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; a final
    implicit +Inf bucket (``overflow``) catches the rest.  ``observe``
    only counts: percentiles are interpolated from the buckets when they
    are read (:meth:`quantile`), clamped to the observed ``min`` and
    ``max`` (±inf while empty).
    """

    __slots__ = (
        "name", "labels", "bounds", "bucket_counts", "overflow", "count", "sum",
        "min", "max",
    )

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError("histogram bounds must be sorted and non-empty")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> int:
        """Count ``value``; returns its bucket index (``len(bounds)`` is +Inf)."""
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.bucket_counts[index] += 1
        else:
            self.overflow += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        return index

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The bucket-interpolated estimate of quantile ``q`` (0.0 when empty).

        The bucket holding the nearest-rank order statistic is found
        exactly; within it the estimate is linear, and the +Inf bucket
        interpolates up to the observed maximum.  The result is clamped
        to the observed ``[min, max]``, so a point mass reads exactly.
        """
        if not 0.0 < q < 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1), got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        running = 0
        lower = 0.0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            if bucket_count:
                running += bucket_count
                if running >= rank:
                    fraction = (rank - (running - bucket_count)) / bucket_count
                    # ``min``: rounding may not carry past the bucket.
                    estimate = min(lower + (bound - lower) * fraction, bound)
                    break
            lower = bound
        else:
            fraction = (rank - running) / self.overflow
            estimate = lower + (self.max - lower) * fraction
        return min(max(estimate, self.min), self.max)

    def percentiles(self) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` from :meth:`quantile`."""
        return {quantile_label(q): self.quantile(q) for q in DEFAULT_QUANTILES}

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.overflow))
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


#: Label set every over-limit series collapses into (see the guard below).
OVERFLOW_LABELS: Dict[str, str] = {"other": "true"}

#: The guard's own accounting series must never trip the guard.
_GUARD_EXEMPT = ("obs.cardinality_overflow",)


class MetricsRegistry:
    """The per-device instrument store.

    ``max_series_per_metric`` is the label-cardinality guard: once a
    metric name holds that many distinct label sets, further *new* label
    sets collapse into one ``{other="true"}`` series and the
    ``obs.cardinality_overflow`` counter (labelled with the offending
    metric name) increments — memory stays O(config) even when a label
    like ``tenant=`` is fed unbounded traffic.  ``None`` (the default)
    keeps the registry unbounded, which is what every existing plane
    expects; the telemetry pipeline opts the bound in.
    """

    def __init__(self, *, max_series_per_metric: Optional[int] = None) -> None:
        #: (name, labels_key) -> instrument
        self._instruments: Dict[Tuple[str, LabelsKey], Any] = {}
        #: name -> kind string, to reject kind clashes early.
        self._kinds: Dict[str, str] = {}
        self.max_series_per_metric = max_series_per_metric
        #: name -> count of distinct (non-overflow) label sets.
        self._series_counts: Dict[str, int] = {}
        #: (kind, name, label items as passed) -> instrument, for requests
        #: that resolved to an existing in-limit series with all-``str``
        #: label values, so repeat lookups skip sorting and stringifying.
        self._memo: Dict[Tuple[str, str, tuple], Any] = {}

    def set_cardinality_limit(self, max_series_per_metric: Optional[int]) -> None:
        """(Re)configure the guard; existing series are never evicted."""
        if max_series_per_metric is not None and max_series_per_metric < 1:
            raise ConfigurationError("max_series_per_metric must be >= 1")
        self.max_series_per_metric = max_series_per_metric

    # -- instrument access ---------------------------------------------------

    def _get(self, kind: str, name: str, labels: Dict[str, Any]):
        memo_key = (kind, name, tuple(labels.items()))
        try:
            instrument = self._memo.get(memo_key)
        except TypeError:  # an unhashable label value
            return self._resolve(kind, name, labels)
        if instrument is None:
            instrument = self._resolve(kind, name, labels)
            # Only plain-str values: equal ints, bools and floats can
            # stringify differently (1, True, 1.0) and would alias.
            if instrument.labels != OVERFLOW_LABELS and all(
                type(value) is str for value in labels.values()
            ):
                self._memo[memo_key] = instrument
        return instrument

    def _resolve(self, kind: str, name: str, labels: Dict[str, Any], **extra: Any):
        declared = self._kinds.setdefault(name, kind)
        if declared != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as a {declared}, "
                f"requested as a {kind}"
            )
        key = (name, _labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            limit = self.max_series_per_metric
            counted = labels != OVERFLOW_LABELS
            if (
                limit is not None
                and counted
                and name not in _GUARD_EXEMPT
                and self._series_counts.get(name, 0) >= limit
            ):
                overflow = self._instruments.get((name, _labels_key(OVERFLOW_LABELS)))
                self._get(
                    "counter", "obs.cardinality_overflow", {"metric": name}
                ).inc()
                if overflow is not None:
                    return overflow
                labels = dict(OVERFLOW_LABELS)
                key = (name, _labels_key(labels))
                counted = False
            label_strs = {k: str(v) for k, v in labels.items()}
            instrument = _KINDS[kind](name, label_strs, **extra)
            self._instruments[key] = instrument
            if counted:
                self._series_counts[name] = self._series_counts.get(name, 0) + 1
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: Any,
    ) -> Histogram:
        if buckets is None:
            return self._get("histogram", name, labels)
        return self._resolve("histogram", name, labels, bounds=tuple(buckets))

    # -- reading -------------------------------------------------------------

    def collect(self, name: Optional[str] = None) -> Iterator[Any]:
        """Iterate instruments (optionally one metric name) in sorted order."""
        for (metric_name, _), instrument in sorted(self._instruments.items()):
            if name is None or metric_name == name:
                yield instrument

    def kind_of(self, name: str) -> Optional[str]:
        return self._kinds.get(name)

    def counter_values(self, name: str) -> Dict[LabelsKey, int]:
        """``labels_key -> value`` for every series of one counter."""
        return {
            _labels_key(instrument.labels): instrument.value
            for instrument in self.collect(name)
        }

    def total(self, name: str) -> float:
        """Sum of a counter across all label sets (0 when unregistered)."""
        return sum(instrument.value for instrument in self.collect(name))

    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """Deterministic JSON-able dump of every instrument."""
        out: Dict[str, List[Dict[str, Any]]] = {}
        for instrument in self.collect():
            entry: Dict[str, Any] = {"labels": dict(sorted(instrument.labels.items()))}
            if isinstance(instrument, Histogram):
                entry["count"] = instrument.count
                entry["sum"] = round(instrument.sum, 6)
                entry["buckets"] = [
                    [bound if bound != float("inf") else "+Inf", count]
                    for bound, count in instrument.cumulative()
                ]
                entry["percentiles"] = {
                    label: round(value, 6)
                    for label, value in instrument.percentiles().items()
                }
            else:
                entry["value"] = instrument.value
            out.setdefault(instrument.name, []).append(entry)
        return out
