"""The metrics-driven shard autoscaler.

A :class:`ShardAutoscaler` reads its dispatcher's lanes at each drain
tick and grows or shrinks the live shard count between configured
bounds, so a diurnal wave gets lanes when the queues build and gives
them back when traffic ebbs.

Control shape (the classic auto-scaling-group pattern, made
deterministic):

* **signal** — mean queued requests per lane plus lane utilization,
  both from one pass over the live lanes (``Dispatcher.lane_load``);
* **hysteresis** — the signal must persist for ``hysteresis_ticks``
  consecutive evaluations before any resize, so one spiky tick never
  flaps the fleet;
* **cooldown** — after a resize the scaler holds for ``cooldown_ms`` of
  virtual time, letting the new lane count absorb the backlog before
  being judged.

Determinism: evaluations happen at the runtime's drain ticks (virtual
instants), every decision is pure arithmetic over the lane counts, and
the resize history is exported in decision order — identically-seeded
runs resize identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError

#: Lanes added or removed by one resize.
RESIZE_STEP = 1


@dataclass(frozen=True)
class AutoscalerConfig:
    """Bounds and control constants for one dispatcher's scaler.

    ``scale_up_depth`` / ``scale_down_depth`` are mean queued requests
    per lane; the gap between them is the hysteresis band.  Scale-down
    additionally requires lane utilization at or below
    ``scale_down_utilization`` so a deep-but-draining backlog is never
    answered by removing lanes.
    """

    min_shards: int = 1
    max_shards: int = 8
    scale_up_depth: float = 4.0
    scale_down_depth: float = 0.5
    scale_down_utilization: float = 0.5
    hysteresis_ticks: int = 3
    cooldown_ms: float = 1_000.0

    def __post_init__(self) -> None:
        # A fractional count reaches Dispatcher.resize's slices, and a NaN
        # compares false everywhere, silently disabling its branch.
        for name in ("min_shards", "max_shards", "hysteresis_ticks"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        for name in (
            "scale_up_depth",
            "scale_down_depth",
            "scale_down_utilization",
            "cooldown_ms",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.min_shards < 1:
            raise ConfigurationError("min_shards must be >= 1")
        if self.max_shards < self.min_shards:
            raise ConfigurationError("max_shards must be >= min_shards")
        if self.scale_down_depth > self.scale_up_depth:
            raise ConfigurationError(
                "scale_down_depth must not exceed scale_up_depth"
            )
        if self.hysteresis_ticks < 1:
            raise ConfigurationError("hysteresis_ticks must be >= 1")
        if self.cooldown_ms < 0:
            raise ConfigurationError("cooldown_ms must be >= 0")


class ShardAutoscaler:
    """Grows/shrinks one dispatcher between the configured bounds."""

    def __init__(
        self,
        dispatcher,
        config: AutoscalerConfig,
        *,
        observability=None,
    ) -> None:
        self.dispatcher = dispatcher
        self.config = config
        self._obs = observability
        metrics = (
            observability.metrics
            if observability is not None
            else dispatcher.metrics
        )
        label = dict(source=dispatcher.platform)
        self._shards_gauge = metrics.gauge("admission.shards", **label)
        self._shards_gauge.set(dispatcher.shards)
        self._resizes_up = metrics.counter(
            "admission.autoscale_resizes", direction="up", **label
        )
        self._resizes_down = metrics.counter(
            "admission.autoscale_resizes", direction="down", **label
        )
        self._up_streak = 0
        self._down_streak = 0
        self._last_resize_ms: Optional[float] = None
        #: Decision history: dicts with t_ms / from / to / direction /
        #: mean_depth / utilization (exported by the admission bench).
        self.resizes: List[Dict[str, Any]] = []

    # -- control -------------------------------------------------------------

    def evaluate(self, now_ms: float) -> Optional[int]:
        """One control tick; returns the new shard count on a resize.

        The signal is the mean queued requests per lane and the share of
        lanes queued or mid-execution."""
        config = self.config
        dispatcher = self.dispatcher
        lanes = dispatcher.shards
        queued, busy = dispatcher.lane_load()
        # The queued total is an exact integer, so dividing it gives the
        # float that dividing the per-lane float sum gives.
        mean_depth = queued / lanes
        utilization = busy / lanes
        if mean_depth >= config.scale_up_depth:
            self._up_streak += 1
            self._down_streak = 0
        elif (
            mean_depth <= config.scale_down_depth
            and utilization <= config.scale_down_utilization
        ):
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0
        in_cooldown = (
            self._last_resize_ms is not None
            and now_ms - self._last_resize_ms < config.cooldown_ms
        )
        if in_cooldown:
            return None
        current = lanes
        target = current
        if self._up_streak >= config.hysteresis_ticks:
            target = min(config.max_shards, current + RESIZE_STEP)
        elif self._down_streak >= config.hysteresis_ticks:
            target = max(config.min_shards, current - RESIZE_STEP)
        if target == current:
            return None
        self._up_streak = 0
        self._down_streak = 0
        self._last_resize_ms = now_ms
        self.dispatcher.resize(target)
        direction = "up" if target > current else "down"
        (self._resizes_up if target > current else self._resizes_down).inc()
        self._shards_gauge.set(target)
        self.resizes.append(
            {
                "t_ms": round(now_ms, 6),
                "from": current,
                "to": target,
                "direction": direction,
                "mean_depth": round(mean_depth, 6),
                "utilization": round(utilization, 6),
            }
        )
        if self._obs is not None and self._obs.tracer.enabled:
            tracer = self._obs.tracer
            # Resizes happen at drain ticks, outside any invocation span,
            # so the event needs its own (zero-duration) anchor span to
            # survive into trace exports.
            with tracer.span(
                "autoscale:resize",
                platform=self.dispatcher.platform,
                outcome=direction,
            ):
                tracer.event(
                    "autoscale.resize",
                    platform=self.dispatcher.platform,
                    from_shards=current,
                    to_shards=target,
                    direction=direction,
                    mean_depth=round(mean_depth, 3),
                )
        if self._obs is not None and self._obs.flight is not None:
            self._obs.flight.note(
                "autoscale.resize",
                platform=self.dispatcher.platform,
                from_shards=current,
                to_shards=target,
                direction=direction,
            )
        return target
