"""Common plumbing shared by the three platform substrates.

Only simulation plumbing lives here (device mounting, native-latency
charging).  Nothing API-visible is shared — API divergence between the
platforms is the point of the reproduction.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.device.device import MobileDevice
from repro.obs.metrics import OVERFLOW_LABELS, Histogram, MetricsRegistry
from repro.util.latency import LatencyModel


class PlatformBase:
    """A platform middleware stack mounted on one simulated device.

    Parameters
    ----------
    device:
        The handset this middleware runs on.
    latency:
        Virtual-time cost of each *native* platform API call, keyed by
        operation names like ``"android.addProximityAlert"``.  Calibrated
        models live in ``repro.bench.calibration``.
    """

    #: Short identifier, e.g. ``"android"``; set by subclasses.
    platform_name = "abstract"

    def __init__(
        self,
        device: MobileDevice,
        *,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.device = device
        self.native_latency = latency or LatencyModel(default_ms=1.0)
        self._charge_log: Dict[str, int] = {}
        #: Traced charges: ``substrate:<op>`` span names by operation, and
        #: the ``substrate.latency_ms`` histograms of ``_latency_registry``.
        self._span_names: Dict[str, str] = {}
        self._latency_registry: Optional[MetricsRegistry] = None
        self._latency_histograms: Dict[str, Histogram] = {}

    @property
    def scheduler(self):
        """The device scheduler (shared virtual time)."""
        return self.device.scheduler

    @property
    def clock(self):
        return self.device.clock

    #: Battery drain per millisecond of native-operation time (radio/CPU).
    DRAIN_MWH_PER_MS = 0.01

    def charge_native(self, operation: str) -> float:
        """Advance virtual time by the native cost of ``operation``.

        Returns the charged latency in milliseconds.  Every native platform
        entry point calls this exactly once, which is what makes the
        Figure-10 "without proxy" bars reproducible.  The device battery is
        drained in proportion to the time spent (radio/CPU energy).

        With tracing enabled the charge appears as a ``substrate:<op>``
        span whose virtual duration is exactly the charged latency, plus
        a latency histogram sample; the latency *draw* happens before the
        span so observability can never perturb the latency RNG stream.
        The span name and the histogram are looked up once per operation
        (the histograms again whenever the hub's registry is replaced).
        """
        latency = self.native_latency.draw(operation)
        obs = self.device.obs
        tracer = obs.tracer
        if tracer.enabled:
            span_name = self._span_names.get(operation)
            if span_name is None:
                span_name = self._span_names[operation] = f"substrate:{operation}"
            span = tracer.start_span(
                span_name, platform=self.platform_name, latency_ms=round(latency, 6)
            )
            try:
                self.clock.advance(latency)
            except BaseException as exc:
                span.mark_error(exc)
                raise
            finally:
                tracer.end_span(span)
            metrics = obs.metrics
            if metrics is not self._latency_registry:
                self._latency_registry = metrics
                self._latency_histograms = {}
            histogram = self._latency_histograms.get(operation)
            if histogram is None:
                histogram = metrics.histogram("substrate.latency_ms", operation=operation)
                if histogram.labels != OVERFLOW_LABELS:
                    # The collapsed series is never cached: each lookup
                    # of an over-limit label set counts one
                    # ``obs.cardinality_overflow``.
                    self._latency_histograms[operation] = histogram
            histogram.observe(latency)
        else:
            self.clock.advance(latency)
        self.device.battery.drain(operation, latency * self.DRAIN_MWH_PER_MS)
        self._charge_log[operation] = self._charge_log.get(operation, 0) + 1
        return latency

    def native_call_counts(self) -> Dict[str, int]:
        """How many times each native operation was charged (test aid)."""
        return dict(self._charge_log)

    def run_for(self, delta_ms: float) -> int:
        """Advance this platform's virtual time."""
        return self.scheduler.run_for(delta_ms)
