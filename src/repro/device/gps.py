"""GPS receiver simulation with trajectory playback.

The receiver replays a :class:`Trajectory` (timed waypoints) against the
device's virtual clock, emitting periodic :class:`GpsFix` events on the
device event bus.  Fix acquisition latency and horizontal accuracy noise
are modelled so the platform location stacks above see realistic
behaviour: a cold receiver takes time to first fix, and reported positions
wobble around ground truth.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
from repro.util.clock import ScheduledTask, Scheduler
from repro.util.events import EventBus
from repro.util.geo import GeoPoint, interpolate

#: Topic on which fixes are published.
TOPIC_FIX = "gps.fix"
#: Topic for receiver power-state changes.
TOPIC_STATE = "gps.state"


@dataclass(frozen=True)
class Waypoint:
    """A trajectory vertex: be at ``point`` at virtual time ``t_ms``."""

    t_ms: float
    point: GeoPoint


@dataclass(frozen=True)
class GpsFix:
    """A single position report from the receiver."""

    point: GeoPoint
    timestamp_ms: float
    accuracy_m: float
    speed_mps: float = 0.0


class Trajectory:
    """A piecewise-linear path through time.

    Before the first waypoint the position holds at the first point; after
    the last it holds at the last point — so a parked agent is just a
    single-waypoint trajectory.  Leg start times, spans and speeds are
    computed once, so a query finds its leg by bisection.
    """

    def __init__(self, waypoints: Sequence[Waypoint]) -> None:
        if not waypoints:
            raise ConfigurationError("trajectory needs at least one waypoint")
        ordered = sorted(waypoints, key=lambda w: w.t_ms)
        self._spans: List[float] = []
        self._speeds: List[float] = []
        for earlier, later in zip(ordered, ordered[1:]):
            if later.t_ms == earlier.t_ms:
                raise ConfigurationError(
                    f"duplicate waypoint time {later.t_ms}"
                )
            span = later.t_ms - earlier.t_ms
            duration_s = span / 1000.0
            distance = earlier.point.distance_to_m(later.point)
            self._spans.append(span)
            self._speeds.append(distance / duration_s if duration_s > 0 else 0.0)
        self._waypoints: List[Waypoint] = list(ordered)
        self._times = [w.t_ms for w in ordered]

    @property
    def waypoints(self) -> List[Waypoint]:
        return list(self._waypoints)

    @property
    def start_ms(self) -> float:
        return self._waypoints[0].t_ms

    @property
    def end_ms(self) -> float:
        return self._waypoints[-1].t_ms

    def position_at(self, t_ms: float) -> GeoPoint:
        """Ground-truth position at virtual time ``t_ms``.

        At an interior waypoint's instant the earlier leg answers, with
        fraction 1.0."""
        pts = self._waypoints
        times = self._times
        if t_ms <= times[0]:
            return pts[0].point
        if t_ms >= times[-1]:
            return pts[-1].point
        leg = bisect_left(times, t_ms) - 1  # first leg with t in [t_k, t_k+1]
        earlier = pts[leg]
        fraction = (t_ms - earlier.t_ms) / self._spans[leg]
        return interpolate(earlier.point, pts[leg + 1].point, fraction)

    def speed_at(self, t_ms: float) -> float:
        """Ground-truth speed in metres/second at ``t_ms``: that of the
        leg with ``t_ms`` in ``[t_k, t_k+1)``."""
        times = self._times
        if t_ms < times[0] or t_ms >= times[-1]:
            return 0.0
        return self._speeds[bisect_right(times, t_ms) - 1]


class GpsReceiver:
    """A virtual GPS chip emitting fixes onto the device event bus.

    Parameters
    ----------
    scheduler:
        The device's shared scheduler.
    bus:
        The device's event bus; fixes publish on :data:`TOPIC_FIX`.
    trajectory:
        Ground-truth path.  Replaceable at runtime via :meth:`set_trajectory`.
    fix_interval_ms:
        Period between fixes once locked.
    time_to_first_fix_ms:
        Cold-start delay before the first fix after :meth:`power_on`.
    accuracy_m:
        Reported (and injected) 1-sigma horizontal error.
    seed:
        Seed for the accuracy-noise RNG.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        bus: EventBus,
        trajectory: Optional[Trajectory] = None,
        *,
        fix_interval_ms: float = 1_000.0,
        time_to_first_fix_ms: float = 2_000.0,
        accuracy_m: float = 5.0,
        seed: Optional[int] = 0,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        if fix_interval_ms <= 0:
            raise ConfigurationError("fix interval must be positive")
        if time_to_first_fix_ms < 0:
            raise ConfigurationError("time to first fix cannot be negative")
        self._scheduler = scheduler
        self._bus = bus
        self._trajectory = trajectory
        self._fix_interval_ms = fix_interval_ms
        self._ttff_ms = time_to_first_fix_ms
        self._accuracy_m = accuracy_m
        self._rng = random.Random(seed)
        self._powered = False
        self._fix_task: Optional[ScheduledTask] = None
        self._last_fix: Optional[GpsFix] = None
        self._faults = injector
        #: Fault-plane observability: fixes dropped / served stale so far.
        self.lost_fixes = 0
        self.stale_fixes = 0

    @property
    def powered(self) -> bool:
        return self._powered

    @property
    def last_fix(self) -> Optional[GpsFix]:
        """Most recent fix, or ``None`` before first lock."""
        return self._last_fix

    @property
    def fix_interval_ms(self) -> float:
        return self._fix_interval_ms

    def set_trajectory(self, trajectory: Trajectory) -> None:
        """Swap the ground-truth path (takes effect at the next fix)."""
        self._trajectory = trajectory

    def power_on(self) -> None:
        """Start the receiver; first fix arrives after the cold-start delay."""
        if self._powered:
            return
        if self._trajectory is None:
            raise SimulationError("cannot power on GPS without a trajectory")
        self._powered = True
        self._bus.publish(TOPIC_STATE, "on")
        self._fix_task = self._scheduler.call_every(
            self._fix_interval_ms,
            self._emit_fix,
            initial_delay_ms=self._ttff_ms,
            name="gps-fix",
        )

    def power_off(self) -> None:
        """Stop emitting fixes.  The last fix remains readable."""
        if not self._powered:
            return
        self._powered = False
        if self._fix_task is not None:
            self._fix_task.cancel()
            self._fix_task = None
        self._bus.publish(TOPIC_STATE, "off")

    def ground_truth(self) -> GeoPoint:
        """The true (noise-free) position right now."""
        if self._trajectory is None:
            raise SimulationError("no trajectory configured")
        return self._trajectory.position_at(self._scheduler.clock.now_ms)

    def _emit_fix(self) -> None:
        if self._faults is not None:
            fault = self._faults.decide("gps.fix")
            if fault is not None:
                if fault.kind == "stale" and self._last_fix is not None:
                    # Replay the previous fix unchanged: position and
                    # timestamp both lag reality, as a stuck receiver's do.
                    self.stale_fixes += 1
                    self._bus.publish(TOPIC_FIX, self._last_fix)
                else:  # "lost" — or stale with nothing to replay
                    self.lost_fixes += 1
                return
        truth = self.ground_truth()
        noisy = GeoPoint(
            latitude=truth.latitude
            + self._meters_to_lat_deg(self._rng.gauss(0.0, self._accuracy_m)),
            longitude=truth.longitude
            + self._meters_to_lat_deg(self._rng.gauss(0.0, self._accuracy_m)),
            altitude=truth.altitude,
        )
        now = self._scheduler.clock.now_ms
        fix = GpsFix(
            point=noisy,
            timestamp_ms=now,
            accuracy_m=self._accuracy_m,
            speed_mps=self._trajectory.speed_at(now) if self._trajectory else 0.0,
        )
        self._last_fix = fix
        self._bus.publish(TOPIC_FIX, fix)

    @staticmethod
    def _meters_to_lat_deg(meters: float) -> float:
        # 1 degree of latitude is ~111.2 km; close enough for noise injection.
        return meters / 111_200.0
