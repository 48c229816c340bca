"""GPS receiver simulation with trajectory playback.

The receiver replays a :class:`Trajectory` (timed waypoints) against the
device's virtual clock and delivers a fix once per interval: to the
battery, to the fences the platforms watch (:mod:`repro.device.geofence`)
and to any ``gps.fix`` subscriber on the device event bus.  Fix
acquisition latency and horizontal accuracy noise are modelled so the
platform location stacks above see realistic behaviour: a cold receiver
takes time to first fix, and reported positions wobble around ground
truth.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.device.geofence import Fix, Visit, run_fences
from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.device.battery import Battery
    from repro.faults.injector import FaultInjector
from repro.util.clock import ScheduledTask, Scheduler
from repro.util.events import EventBus
from repro.util.geo import GeoPoint

#: Topic on which fixes are published.
TOPIC_FIX = "gps.fix"
#: Topic for receiver power-state changes.
TOPIC_STATE = "gps.state"
#: Battery cost of producing one GPS fix.
GPS_FIX_DRAIN_MWH = 0.25


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
    computed once, so a query finds its leg by one bisection.
    """

    def __init__(self, waypoints: Sequence[Waypoint]) -> None:
        if not waypoints:
            raise ConfigurationError("trajectory needs at least one waypoint")
        for waypoint in waypoints:
            if not math.isfinite(waypoint.t_ms):
                raise ConfigurationError(
                    f"waypoint time must be finite, got {waypoint.t_ms}"
                )
        ordered = sorted(waypoints, key=lambda w: w.t_ms)
        self._spans: List[float] = []
        self._speeds: List[float] = []
        for earlier, later in zip(ordered, ordered[1:]):
            if later.t_ms == earlier.t_ms:
                raise ConfigurationError(
                    f"duplicate waypoint time {later.t_ms}"
                )
            span = later.t_ms - earlier.t_ms
            if math.isinf(span):
                raise ConfigurationError(
                    f"leg from {earlier.t_ms} to {later.t_ms} overflows a float"
                )
            duration_s = span / 1000.0
            distance = earlier.point.distance_to_m(later.point)
            self._spans.append(span)
            self._speeds.append(distance / duration_s if duration_s > 0 else 0.0)
        self._waypoints: List[Waypoint] = list(ordered)
        self._times = [w.t_ms for w in ordered]
        self._coords = [
            (w.point.latitude, w.point.longitude, w.point.altitude) for w in ordered
        ]

    @property
    def waypoints(self) -> List[Waypoint]:
        return list(self._waypoints)

    @property
    def start_ms(self) -> float:
        return self._waypoints[0].t_ms

    @property
    def end_ms(self) -> float:
        return self._waypoints[-1].t_ms

    def sample(self, t_ms: float) -> Tuple[float, float, float, float]:
        """Ground truth at ``t_ms`` as ``(latitude, longitude, altitude,
        speed_mps)``, from one leg lookup.

        Position comes from the first leg whose closed interval holds
        ``t_ms``, so at an interior waypoint's instant the earlier leg
        answers with fraction 1.0.  Speed is that of the leg with ``t_ms``
        in ``[t_k, t_k+1)``, and 0 outside the trajectory.
        """
        times = self._times
        leg = bisect_left(times, t_ms)  # times[leg - 1] < t_ms <= times[leg]
        if leg == 0:
            latitude, longitude, altitude = self._coords[0]
            if t_ms < times[0]:
                return latitude, longitude, altitude, 0.0
            if t_ms == times[0]:
                speed = self._speeds[0] if self._speeds else 0.0
                return latitude, longitude, altitude, speed
            raise ValueError(f"trajectory time {t_ms} is not a number")
        last = len(times) - 1
        if leg > last or (leg == last and t_ms == times[last]):
            latitude, longitude, altitude = self._coords[last]
            return latitude, longitude, altitude, 0.0
        earlier = leg - 1
        fraction = (t_ms - times[earlier]) / self._spans[earlier]
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} out of [0, 1]")
        lat1, lon1, alt1 = self._coords[earlier]
        lat2, lon2, alt2 = self._coords[leg]
        return (
            lat1 + (lat2 - lat1) * fraction,
            lon1 + (lon2 - lon1) * fraction,
            alt1 + (alt2 - alt1) * fraction,
            self._speeds[leg if t_ms == times[leg] else earlier],
        )

    def position_at(self, t_ms: float) -> GeoPoint:
        """Ground-truth position at virtual time ``t_ms`` (see :meth:`sample`)."""
        latitude, longitude, altitude, _ = self.sample(t_ms)
        return GeoPoint(latitude, longitude, altitude)

    def speed_at(self, t_ms: float) -> float:
        """Ground-truth speed in metres/second at ``t_ms`` (see :meth:`sample`)."""
        return self.sample(t_ms)[3]


class GpsReceiver:
    """A virtual GPS chip delivering a fix once per interval.

    Each fix goes to its consumers in a fixed order: the battery, each
    watched fence list in the order it was first watched (:meth:`watch`),
    then the bus subscribers of :data:`TOPIC_FIX`.  The fix object
    (:class:`GpsFix`) is built only for a reader: :attr:`last_fix`, or a
    bus subscriber.

    Parameters
    ----------
    scheduler:
        The device's shared scheduler.
    bus:
        The device's event bus; fixes publish on :data:`TOPIC_FIX` when it
        has a subscriber there.
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
    injector:
        The device's fault injector.  A fix consults it only when its plan
        has a ``gps.fix`` rule: a plan is frozen, and a site without a rule
        draws nothing and never faults.
    battery:
        The device's battery, drained :data:`GPS_FIX_DRAIN_MWH` per
        delivered fix (a stale replay included).
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
        battery: Optional["Battery"] = None,
    ) -> None:
        if not (math.isfinite(fix_interval_ms) and fix_interval_ms > 0):
            raise ConfigurationError(
                f"fix interval must be positive and finite, got {fix_interval_ms}"
            )
        if not (math.isfinite(time_to_first_fix_ms) and time_to_first_fix_ms >= 0):
            raise ConfigurationError(
                "time to first fix must be non-negative and finite, "
                f"got {time_to_first_fix_ms}"
            )
        if not (math.isfinite(accuracy_m) and accuracy_m >= 0):
            raise ConfigurationError(
                f"accuracy must be non-negative and finite, got {accuracy_m}"
            )
        self._scheduler = scheduler
        self._bus = bus
        self._trajectory = trajectory
        self._fix_interval_ms = fix_interval_ms
        self._ttff_ms = time_to_first_fix_ms
        self._accuracy_m = accuracy_m
        self._rng = random.Random(seed)
        self._powered = False
        self._fix_task: Optional[ScheduledTask] = None
        self._battery = battery
        #: The latest fix as (latitude, longitude, altitude, timestamp_ms,
        #: speed_mps), and its :class:`GpsFix` once something has read it.
        self._fix: Optional[Fix] = None
        self._last_fix: Optional[GpsFix] = None
        #: ``(fences, visit)`` pairs, in the order they were first watched.
        self._watched: List[Tuple[List[Any], Visit]] = []
        #: The injector, kept only when a fix has a rule to consult.
        self._faults = (
            injector
            if injector is not None and injector.plan.rules_for("gps.fix")
            else None
        )
        #: Fault-plane observability: fixes dropped / served stale so far.
        self.lost_fixes = 0
        self.stale_fixes = 0

    @property
    def powered(self) -> bool:
        return self._powered

    @property
    def last_fix(self) -> Optional[GpsFix]:
        """Most recent fix, or ``None`` before first lock."""
        return self._fix_object()

    @property
    def fix_interval_ms(self) -> float:
        return self._fix_interval_ms

    def watch(self, fences: List[Any], visit: Visit) -> None:
        """Evaluate ``fences`` on every fix from now on.

        ``fences`` is the caller's own list of fence records (see
        :mod:`repro.device.geofence`), which it may change at any time.
        Every delivered fix calls ``visit(fence, now_ms, fix)`` for each
        fence of a snapshot of the list, in list order (see
        :func:`~repro.device.geofence.run_fences`).
        """
        self._watched.append((fences, visit))

    def set_trajectory(self, trajectory: Trajectory) -> None:
        """Swap the ground-truth path (takes effect at the next fix)."""
        if trajectory is None:  # a powered receiver would fail at its next tick
            raise ConfigurationError("set_trajectory needs a trajectory")
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

    def _fix_object(self) -> Optional[GpsFix]:
        """:attr:`last_fix`, built on its first read.  Internal readers
        call this, never the property."""
        fix = self._last_fix
        if fix is None and self._fix is not None:
            latitude, longitude, altitude, timestamp_ms, speed_mps = self._fix
            fix = self._last_fix = GpsFix(
                GeoPoint(latitude, longitude, altitude),
                timestamp_ms,
                self._accuracy_m,
                speed_mps,
            )
        return fix

    def _emit_fix(self) -> None:
        if self._faults is not None:
            fault = self._faults.decide("gps.fix")
            if fault is not None:
                if fault.kind == "stale" and self._fix is not None:
                    # Replay the previous fix unchanged: position and
                    # timestamp both lag reality, as a stuck receiver's do.
                    # The replay is a delivery of its own, in a new tuple.
                    self.stale_fixes += 1
                    latitude, longitude, altitude, timestamp_ms, speed = self._fix
                    self._deliver((latitude, longitude, altitude, timestamp_ms, speed))
                else:  # "lost" — or stale with nothing to replay
                    self.lost_fixes += 1
                return
        now = self._scheduler.clock.now_ms
        latitude, longitude, altitude, speed = self._trajectory.sample(now)
        gauss = self._rng.gauss
        accuracy = self._accuracy_m
        # Noise in metres to degrees: 1 degree of latitude is ~111.2 km,
        # close enough for noise injection.  Latitude draws first.
        latitude += gauss(0.0, accuracy) / 111_200.0
        longitude += gauss(0.0, accuracy) / 111_200.0
        if not (-90.0 <= latitude <= 90.0 and -180.0 <= longitude <= 180.0):
            GeoPoint(latitude, longitude, altitude)  # raises its range error
        self._fix = fix = (latitude, longitude, altitude, now, speed)
        self._last_fix = None
        self._deliver(fix)

    def _deliver(self, fix: Fix) -> None:
        if self._battery is not None:
            self._battery.drain("gps.fix", GPS_FIX_DRAIN_MWH)
        if self._watched:
            run_fences(self._watched, fix, self._scheduler.clock)
        if self._bus.has_subscribers(TOPIC_FIX):
            self._bus.publish(TOPIC_FIX, self._fix_object())
