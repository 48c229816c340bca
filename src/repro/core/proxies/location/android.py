"""Android binding of the Location proxy.

Absorbs (paper Section 4.1):

* the application-context requirement — via ``set_property("context", …)``;
* the Intent/IntentReceiver callback machinery — an internal receiver
  translates proximity broadcasts into uniform ``proximity_event`` calls;
* the m5-rc15 → 1.0 evolution — when the platform's SDK requires a
  ``PendingIntent``, the binding wraps the Intent itself, so application
  code is untouched by the platform change (the maintenance experiment).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.android_common import AndroidBinding
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.location.api import NO_EXPIRATION, LocationProxy
from repro.core.proxy.callbacks import ProximityListener
from repro.core.proxy.datatypes import Location
from repro.core.resilience import LAST_RESULT
from repro.platforms.android.context import Context
from repro.platforms.android.intents import Intent, IntentFilter, IntentReceiver, PendingIntent
from repro.platforms.android.location import (
    EXTRA_ENTERING,
    NO_EXPIRATION as ANDROID_NO_EXPIRATION,
    Location as AndroidLocation,
    LocationManager,
)
from repro.platforms.android.platform import AndroidPlatform

#: Action prefix for the binding's private proximity intents.
_ACTION_PREFIX = "com.ibm.proxies.android.intent.action.PROXIMITY_ALERT"


def _to_uniform(native: AndroidLocation) -> Location:
    return Location(
        latitude=native.get_latitude(),
        longitude=native.get_longitude(),
        altitude=native.get_altitude(),
        accuracy_m=native.get_accuracy(),
        timestamp_ms=native.get_time(),
        speed_mps=native.get_speed(),
    )


class _ProxyIntentReceiver(IntentReceiver):
    """Internal receiver translating broadcasts to uniform events."""

    def __init__(
        self,
        proxy: "AndroidLocationProxyImpl",
        listener: ProximityListener,
        latitude: float,
        longitude: float,
        altitude: float,
    ) -> None:
        self._proxy = proxy
        self._listener = listener
        self._latitude = latitude
        self._longitude = longitude
        self._altitude = altitude

    def on_receive_intent(self, context: Context, intent: Intent) -> None:
        entering = intent.get_boolean_extra(EXTRA_ENTERING, False)
        manager = context.get_system_service(Context.LOCATION_SERVICE)
        provider = self._proxy.get_property("provider")
        native = manager.get_last_known_location(provider)
        if native is None:  # no fix yet; synthesize from the region centre
            current = Location(self._latitude, self._longitude, self._altitude)
        else:
            current = _to_uniform(native)
        self._listener.proximity_event(
            self._latitude, self._longitude, self._altitude, current, entering
        )


class AndroidLocationProxyImpl(AndroidBinding, LocationProxy):
    """``com.ibm.proxies.android.location.LocationProxyImpl``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: AndroidPlatform) -> None:
        super().__init__(descriptor, platform)
        self._alert_counter = 0
        #: listener id → (intent-or-pending, receiver) for deregistration.
        self._registrations: Dict[int, Tuple[object, _ProxyIntentReceiver]] = {}

    def _location_manager(self, context: Context) -> LocationManager:
        return context.get_system_service(Context.LOCATION_SERVICE)

    # -- uniform API ------------------------------------------------------------

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
            context = self._context("addProximityAlert")
            manager = self._location_manager(context)
            self._alert_counter += 1
            action = f"{_ACTION_PREFIX}_{self._alert_counter}"
            intent = Intent(action)
            receiver = _ProxyIntentReceiver(
                self, proximity_listener, latitude, longitude, altitude
            )
            context.register_receiver(receiver, IntentFilter(action))
            expiration_ms = (
                ANDROID_NO_EXPIRATION if timer == NO_EXPIRATION else timer * 1000.0
            )
            # SDK absorption: 1.0 requires a PendingIntent where m5-rc15
            # took the raw Intent.  The application never sees this.
            if self._platform.sdk_version.proximity_alert_takes_pending_intent:
                target = PendingIntent.get_broadcast(context, 0, intent)
            else:
                target = intent
            self._trace_event(
                "binding.sdk_absorption",
                action=action,
                target=type(target).__name__,
            )
            try:
                manager.add_proximity_alert(
                    latitude, longitude, radius, expiration_ms, target
                )
            except Exception:
                # A refused registration (no ACCESS_FINE_LOCATION, say)
                # must not leave its receiver behind.
                context.unregister_receiver(receiver)
                raise
            self._registrations[id(proximity_listener)] = (target, receiver)

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
        registration = self._registrations.pop(id(proximity_listener), None)

        def attempt() -> None:
            if registration is None:
                return
            target, receiver = registration
            context = self._context("removeProximityAlert")
            self._location_manager(context).remove_proximity_alert(target)
            context.unregister_receiver(receiver)
            if isinstance(target, PendingIntent):
                target.cancel()

        self._call("removeProximityAlert", attempt)

    def get_location(self) -> Location:
        def attempt() -> Location:
            context = self._context("getLocation")
            provider = self.get_property("provider")
            manager = self._location_manager(context)
            return _to_uniform(manager.get_current_location(provider))

        # Resilience: when the receiver is dark, serve the last-known
        # location rather than failing the caller (graceful degradation).
        return self._call("getLocation", attempt, fallback=LAST_RESULT)


register_implementation(
    "com.ibm.proxies.android.location.LocationProxyImpl", AndroidLocationProxyImpl
)
