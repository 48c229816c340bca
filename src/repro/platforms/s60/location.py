"""JSR-179 style location stack.

The shape and the *gaps* both matter:

* ``LocationProvider.get_instance(criteria)`` selects a provider by
  accuracy/response-time criteria; an unsatisfiable request returns
  ``None`` and an out-of-service platform raises the checked
  :class:`~repro.platforms.s60.exceptions.LocationException`.
* ``add_proximity_listener(listener, coordinates, radius)`` is **one-shot**
  (removed after the first enter event), has **no exit events** and **no
  expiration** — Figure 2(b) of the paper shows the application-side code
  needed to paper over exactly these gaps, and the S60 Location M-Proxy
  moves that code into the binding.
* Listener-style updates use ``set_location_listener(listener, interval,
  timeout, max_age)`` with the magic ``-1`` defaults.

Java mapping: ``proximityEvent`` → :meth:`ProximityListener.proximity_event`,
``locationUpdated`` → :meth:`LocationListener.location_updated`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.device.geofence import Box, Fix, contains
from repro.device.gps import GpsFix
from repro.platforms.s60.exceptions import (
    IllegalArgumentException,
    LocationException,
    NullPointerException,
    SecurityException,
)
from repro.util.geo import haversine_m

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms.s60.platform import S60Platform

#: MIDP permission string guarding the location API.
PERMISSION_LOCATION = "javax.microedition.location.Location"

#: The accuracy (metres) the simulated GPS provider can satisfy.
PROVIDER_BEST_ACCURACY_M = 10.0


class Coordinates:
    """JSR-179 coordinate triple with Java-style accessors."""

    def __init__(self, latitude: float, longitude: float, altitude: float = 0.0) -> None:
        if not -90.0 <= latitude <= 90.0:
            raise IllegalArgumentException(f"latitude {latitude} out of range")
        if not -180.0 <= longitude <= 180.0:
            raise IllegalArgumentException(f"longitude {longitude} out of range")
        self._latitude = latitude
        self._longitude = longitude
        self._altitude = altitude

    def get_latitude(self) -> float:
        return self._latitude

    def get_longitude(self) -> float:
        return self._longitude

    def get_altitude(self) -> float:
        return self._altitude

    def distance(self, other: "Coordinates") -> float:
        """Great-circle distance in metres (Java: ``Coordinates.distance``)."""
        return haversine_m(
            self._latitude, self._longitude, other.get_latitude(), other.get_longitude()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Coordinates({self._latitude:.6f}, {self._longitude:.6f})"


class Criteria:
    """Provider-selection constraints (JSR-179 ``Criteria``).

    The paper's binding plane lists ``preferredResponseTime`` as an
    S60-specific property with a default and allowed values — it enters the
    platform through this object.
    """

    #: Java: Criteria.NO_REQUIREMENT
    NO_REQUIREMENT = 0

    #: Java: Criteria.POWER_USAGE_*
    POWER_USAGE_LOW = 1
    POWER_USAGE_MEDIUM = 2
    POWER_USAGE_HIGH = 3

    def __init__(self) -> None:
        self._horizontal_accuracy = self.NO_REQUIREMENT
        self._vertical_accuracy = self.NO_REQUIREMENT
        self._preferred_response_time = self.NO_REQUIREMENT
        self._preferred_power_consumption = self.NO_REQUIREMENT

    def set_horizontal_accuracy(self, accuracy_m: int) -> None:
        if accuracy_m < 0:
            raise IllegalArgumentException("accuracy cannot be negative")
        self._horizontal_accuracy = accuracy_m

    def get_horizontal_accuracy(self) -> int:
        return self._horizontal_accuracy

    def set_vertical_accuracy(self, accuracy_m: int) -> None:
        if accuracy_m < 0:
            raise IllegalArgumentException("accuracy cannot be negative")
        self._vertical_accuracy = accuracy_m

    def get_vertical_accuracy(self) -> int:
        return self._vertical_accuracy

    def set_preferred_response_time(self, time_ms: int) -> None:
        if time_ms < 0:
            raise IllegalArgumentException("response time cannot be negative")
        self._preferred_response_time = time_ms

    def get_preferred_response_time(self) -> int:
        return self._preferred_response_time

    def set_preferred_power_consumption(self, level: int) -> None:
        if level not in (
            self.NO_REQUIREMENT,
            self.POWER_USAGE_LOW,
            self.POWER_USAGE_MEDIUM,
            self.POWER_USAGE_HIGH,
        ):
            raise IllegalArgumentException(f"bad power consumption level {level}")
        self._preferred_power_consumption = level

    def get_preferred_power_consumption(self) -> int:
        return self._preferred_power_consumption


class S60Location:
    """A JSR-179 ``Location`` result object."""

    def __init__(
        self,
        coordinates: Coordinates,
        timestamp_ms: float,
        speed_mps: float = 0.0,
        valid: bool = True,
    ) -> None:
        self._coordinates = coordinates
        self._timestamp_ms = timestamp_ms
        self._speed_mps = speed_mps
        self._valid = valid

    def get_qualified_coordinates(self) -> Coordinates:
        return self._coordinates

    def get_timestamp(self) -> float:
        return self._timestamp_ms

    def get_speed(self) -> float:
        return self._speed_mps

    def is_valid(self) -> bool:
        return self._valid

    @classmethod
    def from_fix(cls, fix: GpsFix) -> "S60Location":
        return cls(
            Coordinates(fix.point.latitude, fix.point.longitude, fix.point.altitude),
            timestamp_ms=fix.timestamp_ms,
            speed_mps=fix.speed_mps,
        )


class ProximityListener:
    """JSR-179 proximity callback interface (abstract)."""

    def proximity_event(self, coordinates: Coordinates, location: S60Location) -> None:
        """Called **once** when the terminal enters the registered region."""
        raise NotImplementedError

    def monitoring_state_changed(self, is_monitoring_active: bool) -> None:
        """Called when proximity monitoring is activated/deactivated."""


class LocationListener:
    """JSR-179 periodic-update callback interface (abstract)."""

    def location_updated(self, provider: "LocationProvider", location: S60Location) -> None:
        raise NotImplementedError

    def provider_state_changed(self, provider: "LocationProvider", new_state: int) -> None:
        """Called on provider availability changes."""


@dataclass
class _ProximityRegistration:
    """One registered proximity listener (a fence record of
    :mod:`repro.device.geofence`)."""

    listener: ProximityListener
    coordinates: Coordinates
    radius_m: float
    fired: bool = False
    #: Set by the fence pass; not part of the registration's value.
    box: Optional[Box] = field(default=None, compare=False, repr=False)

    # The centre, read only for the box and for a fix inside it.
    @property
    def latitude(self) -> float:
        return self.coordinates.get_latitude()

    @property
    def longitude(self) -> float:
        return self.coordinates.get_longitude()


@dataclass
class _ListenerRegistration:
    listener: LocationListener
    interval_ms: float


class LocationProvider:
    """A selected location provider instance.

    Instances come from :meth:`LocationProviderStatics.get_instance`, never
    direct construction — matching the J2ME factory idiom.
    """

    #: Java: LocationProvider.AVAILABLE / OUT_OF_SERVICE
    AVAILABLE = 1
    TEMPORARILY_UNAVAILABLE = 2
    OUT_OF_SERVICE = 3

    def __init__(self, statics: "LocationProviderStatics", criteria: Optional[Criteria]) -> None:
        self._statics = statics
        self._criteria = criteria
        self._listener_reg: Optional[_ListenerRegistration] = None
        self._listener_task = None

    @property
    def criteria(self) -> Optional[Criteria]:
        return self._criteria

    def get_state(self) -> int:
        return (
            self.OUT_OF_SERVICE
            if self._statics.out_of_service
            else self.AVAILABLE
        )

    def get_location(self, timeout_s: int) -> S60Location:
        """Blocking position read (Java: ``getLocation(int timeout)``).

        Charges native latency; raises ``LocationException`` when the
        provider is out of service or the (virtual) fix would exceed
        ``timeout_s``.
        """
        self._statics.check_permission("getLocation")
        if timeout_s == 0 or timeout_s < -1:
            raise IllegalArgumentException(f"bad timeout {timeout_s}")
        if self._statics.out_of_service:
            raise LocationException("provider out of service")
        platform = self._statics.platform
        charged_ms = platform.charge_native("s60.getLocation")
        if timeout_s != -1 and charged_ms > timeout_s * 1000.0:
            raise LocationException(f"timed out after {timeout_s}s")
        self._statics.ensure_gps_powered()
        fix = platform.device.gps.last_fix
        if fix is not None:
            return S60Location.from_fix(fix)
        point = platform.device.gps.ground_truth()
        return S60Location(
            Coordinates(point.latitude, point.longitude, point.altitude),
            timestamp_ms=platform.clock.now_ms,
        )

    def set_location_listener(
        self,
        listener: Optional[LocationListener],
        interval_s: int,
        timeout_s: int,
        max_age_s: int,
    ) -> None:
        """Register (or with ``None`` clear) a periodic update listener.

        The ``-1`` magic values mean "platform default" as in JSR-179.
        """
        self._statics.check_permission("setLocationListener")
        if self._listener_task is not None:
            self._listener_task.cancel()
            self._listener_task = None
        self._listener_reg = None
        if listener is None:
            return
        platform = self._statics.platform
        interval_ms = 5_000.0 if interval_s == -1 else max(1.0, interval_s * 1000.0)
        self._listener_reg = _ListenerRegistration(listener, interval_ms)
        self._statics.ensure_gps_powered()

        def poll() -> None:
            fix = platform.device.gps.last_fix
            if fix is not None and self._listener_reg is not None:
                self._listener_reg.listener.location_updated(
                    self, S60Location.from_fix(fix)
                )

        self._listener_task = platform.scheduler.call_every(
            interval_ms, poll, name="s60-location-listener"
        )


class LocationProviderStatics:
    """The static side of JSR-179's ``LocationProvider`` class.

    Accessed as ``platform.location_provider`` (Python has no class statics
    bound to a platform instance).  Holds the platform-wide proximity
    registration table, which the device's GPS receiver watches: every
    fix hands each registration to :meth:`_on_fence`.
    """

    def __init__(self, platform: "S60Platform") -> None:
        self.platform = platform
        self.out_of_service = False
        self._proximity: List[_ProximityRegistration] = []
        self._watching = False
        #: The delivered fix the last entry fired on, and the Location built
        #: from it, which every registration entering on that fix shares.
        self._entry_fix: Optional[Fix] = None
        self._entry_location: Optional[S60Location] = None
        self._suite_name: Optional[str] = None

    def bind_suite(self, suite_name: str) -> None:
        """Attribute subsequent permission checks to a MIDlet suite."""
        self._suite_name = suite_name

    def check_permission(self, what: str) -> None:
        if self._suite_name is None:
            return  # unbound: platform-internal use
        if not self.platform.suite_has_permission(self._suite_name, PERMISSION_LOCATION):
            raise SecurityException(
                f"suite {self._suite_name!r} lacks {PERMISSION_LOCATION} for {what}"
            )

    # -- Java: LocationProvider.getInstance(criteria) -------------------------

    def get_instance(self, criteria: Optional[Criteria]) -> Optional[LocationProvider]:
        """Select a provider for ``criteria``.

        Returns ``None`` when no provider can meet the criteria (JSR-179
        contract) and raises ``LocationException`` when all providers are
        out of service.
        """
        if self.out_of_service:
            raise LocationException("all location providers out of service")
        if criteria is not None:
            accuracy = criteria.get_horizontal_accuracy()
            if accuracy != Criteria.NO_REQUIREMENT and accuracy < PROVIDER_BEST_ACCURACY_M:
                return None  # unsatisfiable precision request
        return LocationProvider(self, criteria)

    # -- Java: LocationProvider.addProximityListener(...) ----------------------

    def add_proximity_listener(
        self,
        listener: ProximityListener,
        coordinates: Coordinates,
        proximity_radius: float,
    ) -> None:
        """Register a **one-shot** proximity listener.

        Fires ``proximity_event`` exactly once, on entry, then the platform
        auto-removes the registration.  No exit events, no expiration.
        """
        self.check_permission("addProximityListener")
        if listener is None or coordinates is None:
            raise NullPointerException("listener and coordinates are required")
        if proximity_radius <= 0.0:
            raise IllegalArgumentException(
                f"radius must be positive, got {proximity_radius}"
            )
        self.platform.charge_native("s60.addProximityListener")
        self._proximity.append(
            _ProximityRegistration(listener, coordinates, proximity_radius)
        )
        self.ensure_gps_powered()
        listener.monitoring_state_changed(True)

    def remove_proximity_listener(self, listener: ProximityListener) -> None:
        """Remove every registration of ``listener``."""
        removed = [r for r in self._proximity if r.listener is listener]
        self._proximity[:] = [r for r in self._proximity if r.listener is not listener]
        for registration in removed:
            registration.listener.monitoring_state_changed(False)

    @property
    def proximity_registration_count(self) -> int:
        return len(self._proximity)

    # -- internals ---------------------------------------------------------------

    def ensure_gps_powered(self) -> None:
        gps = self.platform.device.gps
        if not gps.powered:
            gps.power_on()
        if not self._watching:
            gps.watch(self._proximity, self._on_fence)
            self._watching = True

    def _on_fence(
        self, registration: _ProximityRegistration, now_ms: float, fix: Fix
    ) -> None:
        if contains(registration, fix) and not registration.fired:
            registration.fired = True
            # JSR-179: one-shot — remove before delivering.  A callback
            # earlier on this fix may have removed it already; it is
            # still delivered, as the pass walks a snapshot.
            if registration in self._proximity:
                self._proximity.remove(registration)
            if self._entry_fix is not fix:
                # Built on an entry only: most fixes fire no registration.
                latitude, longitude, altitude, timestamp_ms, speed_mps = fix
                self._entry_fix = fix
                self._entry_location = S60Location(
                    Coordinates(latitude, longitude, altitude),
                    timestamp_ms=timestamp_ms,
                    speed_mps=speed_mps,
                )
            registration.listener.proximity_event(
                registration.coordinates, self._entry_location
            )
