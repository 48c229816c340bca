"""S60 binding of the Location proxy — the heavy gap-filler.

The native JSR-179 stack gives one-shot entry-only listeners with no
expiration.  The uniform API promises repeating enter **and** exit events
with a timer.  This binding synthesizes the difference (exactly the logic
the paper's Figure 2(b) shows scattered through application code, now
concentrated here):

* after a native entry fires, a location listener polls for the exit
  crossing and emits the uniform ``entering=False`` event;
* after the exit, the one-shot native listener is **re-registered** so the
  next entry fires again;
* every handler checks the expiration deadline and tears the whole
  machine down once passed (mirroring the paper's ``timeOut`` checks).

Criteria knobs (accuracy, response time, power) arrive as binding-plane
properties, never through the common API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.location.api import NO_EXPIRATION, LocationProxy
from repro.core.proxy.callbacks import ProximityListener
from repro.core.proxy.datatypes import Location
from repro.core.resilience import LAST_RESULT
from repro.errors import ProxyPlatformError
from repro.platforms.s60.location import (
    Coordinates,
    Criteria,
    LocationListener as NativeLocationListener,
    LocationProvider,
    ProximityListener as NativeProximityListener,
    S60Location,
)
from repro.platforms.s60.platform import S60Platform

_POWER_LEVELS = {
    "NO_REQUIREMENT": Criteria.NO_REQUIREMENT,
    "LOW": Criteria.POWER_USAGE_LOW,
    "MEDIUM": Criteria.POWER_USAGE_MEDIUM,
    "HIGH": Criteria.POWER_USAGE_HIGH,
}


def _to_uniform(native: S60Location) -> Location:
    coordinates = native.get_qualified_coordinates()
    return Location(
        latitude=coordinates.get_latitude(),
        longitude=coordinates.get_longitude(),
        altitude=coordinates.get_altitude(),
        timestamp_ms=native.get_timestamp(),
        speed_mps=native.get_speed(),
    )


@dataclass
class _AlertMachine:
    """Per-listener synthesis state."""

    listener: ProximityListener
    latitude: float
    longitude: float
    altitude: float
    radius_m: float
    deadline_ms: Optional[float]
    provider: LocationProvider
    native_entry: Optional[NativeProximityListener] = None
    exit_watch: Optional[NativeLocationListener] = None
    active: bool = True


class _NativeEntryListener(NativeProximityListener):
    """One-shot native listener for the next entry crossing."""

    def __init__(self, proxy: "S60LocationProxyImpl", machine: _AlertMachine) -> None:
        self._proxy = proxy
        self._machine = machine

    def proximity_event(self, coordinates: Coordinates, location: S60Location) -> None:
        self._proxy._on_native_entry(self._machine, location)

    def monitoring_state_changed(self, is_monitoring_active: bool) -> None:
        pass  # informational only


class _ExitWatchListener(NativeLocationListener):
    """Polls position while inside the region, looking for the exit."""

    def __init__(self, proxy: "S60LocationProxyImpl", machine: _AlertMachine) -> None:
        self._proxy = proxy
        self._machine = machine

    def location_updated(self, provider: LocationProvider, location: S60Location) -> None:
        self._proxy._on_exit_poll(self._machine, location)

    def provider_state_changed(self, provider: LocationProvider, new_state: int) -> None:
        pass


class S60LocationProxyImpl(LocationProxy):
    """``com.ibm.S60.location.LocationProxy``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: S60Platform) -> None:
        super().__init__(descriptor, "s60")
        self._platform = platform
        self._machines: Dict[int, _AlertMachine] = {}

    # -- criteria from properties -------------------------------------------

    def _build_criteria(self) -> Criteria:
        criteria = Criteria()
        criteria.set_horizontal_accuracy(int(self.get_property("horizontalAccuracy")))
        criteria.set_vertical_accuracy(int(self.get_property("verticalAccuracy")))
        criteria.set_preferred_response_time(
            int(self.get_property("preferredResponseTime"))
        )
        criteria.set_preferred_power_consumption(
            _POWER_LEVELS[self.get_property("powerConsumption")]
        )
        return criteria

    def _acquire_provider(self, for_what: str) -> LocationProvider:
        provider = self._platform.location_provider.get_instance(self._build_criteria())
        if provider is None:
            raise ProxyPlatformError(
                f"{for_what}: no S60 location provider satisfies the "
                "configured criteria (relax horizontalAccuracy)"
            )
        return provider

    # -- uniform API --------------------------------------------------------------

    def add_proximity_alert(
        self,
        latitude: float,
        longitude: float,
        altitude: float,
        radius: float,
        timer: float,
        proximity_listener: ProximityListener,
    ) -> None:
        def attempt() -> None:
            provider = self._acquire_provider("addProximityAlert")
            now = self._platform.clock.now_ms
            deadline = None if timer == NO_EXPIRATION else now + timer * 1000.0
            machine = _AlertMachine(
                listener=proximity_listener,
                latitude=latitude,
                longitude=longitude,
                altitude=altitude,
                radius_m=radius,
                deadline_ms=deadline,
                provider=provider,
            )
            self._machines[id(proximity_listener)] = machine
            self._arm_entry(machine)
            self._trace_event(
                "binding.alert_machine_armed",
                radius_m=radius,
                deadline_ms=deadline,
            )

        self._call(
            "addProximityAlert",
            attempt,
            latitude=latitude,
            longitude=longitude,
            altitude=altitude,
            radius=radius,
            timer=timer,
        )

    def remove_proximity_alert(self, proximity_listener: ProximityListener) -> None:
        def attempt() -> None:
            machine = self._machines.pop(id(proximity_listener), None)
            if machine is not None:
                self._teardown(machine)

        self._call("removeProximityAlert", attempt)

    def get_location(self) -> Location:
        def attempt() -> Location:
            provider = self._acquire_provider("getLocation")
            self._trace_event("binding.provider_acquired")
            return _to_uniform(provider.get_location(-1))

        return self._call("getLocation", attempt, fallback=LAST_RESULT)

    # -- synthesis machinery ----------------------------------------------------

    def _arm_entry(self, machine: _AlertMachine) -> None:
        """Register the one-shot native listener for the next entry."""
        entry = _NativeEntryListener(self, machine)
        machine.native_entry = entry
        self._platform.location_provider.add_proximity_listener(
            entry,
            Coordinates(machine.latitude, machine.longitude, machine.altitude),
            machine.radius_m,
        )

    def _expired(self, machine: _AlertMachine) -> bool:
        if machine.deadline_ms is None:
            return False
        return self._platform.clock.now_ms > machine.deadline_ms

    def _on_native_entry(self, machine: _AlertMachine, location: S60Location) -> None:
        if not machine.active:
            return
        if self._expired(machine):  # paper's timeOut check on entry
            self._teardown(machine)
            return
        machine.listener.proximity_event(
            machine.latitude,
            machine.longitude,
            machine.altitude,
            _to_uniform(location),
            True,
        )
        # The native registration auto-removed itself (one-shot); start
        # polling for the exit crossing.
        machine.native_entry = None
        watch = _ExitWatchListener(self, machine)
        machine.exit_watch = watch
        interval_s = max(1, int(self.get_property("preferredResponseTime")) // 1000)
        machine.provider.set_location_listener(watch, interval_s, -1, -1)

    def _on_exit_poll(self, machine: _AlertMachine, location: S60Location) -> None:
        if not machine.active:
            return
        if self._expired(machine):  # paper's timeOut check on update
            self._teardown(machine)
            return
        current = _to_uniform(location)
        centre = Location(machine.latitude, machine.longitude, machine.altitude)
        if current.distance_to_m(centre) > machine.radius_m:
            machine.provider.set_location_listener(None, -1, -1, -1)
            machine.exit_watch = None
            machine.listener.proximity_event(
                machine.latitude,
                machine.longitude,
                machine.altitude,
                current,
                False,
            )
            # Back to waiting for the next entry.
            self._arm_entry(machine)

    def _teardown(self, machine: _AlertMachine) -> None:
        machine.active = False
        if machine.native_entry is not None:
            self._platform.location_provider.remove_proximity_listener(
                machine.native_entry
            )
            machine.native_entry = None
        if machine.exit_watch is not None:
            machine.provider.set_location_listener(None, -1, -1, -1)
            machine.exit_watch = None
        self._machines.pop(id(machine.listener), None)


register_implementation("com.ibm.S60.location.LocationProxy", S60LocationProxyImpl)
