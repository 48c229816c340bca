"""Tests for the Android location stack (proximity alerts, SDK switch)."""

import math

import pytest

from repro.device.device import MobileDevice
from repro.platforms.android.context import Context
from repro.platforms.android.exceptions import (
    IllegalArgumentException,
    SecurityException,
)
from repro.platforms.android.intents import (
    FunctionIntentReceiver,
    Intent,
    IntentFilter,
    PendingIntent,
)
from repro.platforms.android.location import (
    ACCESS_FINE_LOCATION,
    EXTRA_ENTERING,
    Location,
    NO_EXPIRATION,
)
from repro.platforms.android.platform import AndroidPlatform
from repro.platforms.android.versions import SdkVersion

SITE = (28.6, 77.2)


@pytest.fixture
def platform(device):
    platform = AndroidPlatform(device)
    platform.install("app", {ACCESS_FINE_LOCATION})
    return platform


@pytest.fixture
def context(platform):
    return platform.new_context("app")


@pytest.fixture
def manager(context):
    return context.get_system_service(Context.LOCATION_SERVICE)


def _register(context, events):
    context.register_receiver(
        FunctionIntentReceiver(
            lambda c, i: events.append(i.get_boolean_extra(EXTRA_ENTERING, False))
        ),
        IntentFilter("PROX"),
    )


class TestGetLocation:
    def test_returns_position(self, platform, manager):
        location = manager.get_current_location("gps")
        assert isinstance(location, Location)
        assert location.get_latitude() != 0.0

    def test_charges_native_latency(self, platform, manager):
        before = platform.clock.now_ms
        manager.get_current_location("gps")
        charged = platform.clock.now_ms - before
        assert charged == pytest.approx(
            platform.native_latency.mean_for("android.getLocation")
        )

    def test_unknown_provider_rejected(self, manager):
        with pytest.raises(IllegalArgumentException):
            manager.get_current_location("carrier-pigeon")

    def test_requires_permission(self, platform):
        platform.install("noperm", set())
        context = platform.new_context("noperm")
        manager = context.get_system_service(Context.LOCATION_SERVICE)
        with pytest.raises(SecurityException):
            manager.get_current_location("gps")

    def test_last_known_none_before_first_fix(self, manager):
        assert manager.get_last_known_location("gps") is None

    def test_last_known_after_fix(self, platform, manager):
        manager.get_current_location("gps")  # powers GPS
        platform.run_for(10_000.0)
        assert manager.get_last_known_location("gps") is not None


class TestProximityAlerts:
    def test_enter_and_exit_events(self, platform, context, manager):
        events = []
        _register(context, events)
        manager.add_proximity_alert(*SITE, 500.0, NO_EXPIRATION, Intent("PROX"))
        platform.run_for(200_000.0)
        assert events == [True, False, True]

    def test_expiration_stops_events(self, platform, context, manager):
        events = []
        _register(context, events)
        # Expire after 30 s: the device reaches the site at ~55 s.
        manager.add_proximity_alert(*SITE, 500.0, 30_000.0, Intent("PROX"))
        platform.run_for(200_000.0)
        assert events == []

    def test_remove_alert(self, platform, context, manager):
        events = []
        _register(context, events)
        intent = Intent("PROX")
        manager.add_proximity_alert(*SITE, 500.0, NO_EXPIRATION, intent)
        manager.remove_proximity_alert(intent)
        platform.run_for(200_000.0)
        assert events == []

    def test_invalid_radius_rejected(self, manager):
        with pytest.raises(IllegalArgumentException):
            manager.add_proximity_alert(*SITE, 0.0, NO_EXPIRATION, Intent("PROX"))

    @pytest.mark.parametrize(
        "latitude, longitude, radius",
        [
            (math.nan, SITE[1], 500.0),
            (math.inf, SITE[1], 500.0),
            (SITE[0], math.nan, 500.0),
            (SITE[0], -math.inf, 500.0),
            (*SITE, math.nan),
            (*SITE, math.inf),
        ],
    )
    def test_non_finite_centre_or_radius_rejected(
        self, platform, context, manager, latitude, longitude, radius
    ):
        events = []
        _register(context, events)
        before = platform.clock.now_ms
        with pytest.raises(IllegalArgumentException, match="finite"):
            manager.add_proximity_alert(
                latitude, longitude, radius, NO_EXPIRATION, Intent("PROX")
            )
        assert platform.clock.now_ms == before  # refused before the native charge
        # An accepted infinite centre made every later fix raise.
        platform.run_for(200_000.0)
        assert events == []

    def test_requires_permission(self, platform):
        platform.install("noperm", set())
        context = platform.new_context("noperm")
        manager = context.get_system_service(Context.LOCATION_SERVICE)
        with pytest.raises(SecurityException):
            manager.add_proximity_alert(*SITE, 500.0, NO_EXPIRATION, Intent("PROX"))

    def test_registration_starts_inside_fires_enter(self, commute_trajectory, platform, context, manager):
        # Device parked inside the region from t=0.
        from repro.device.gps import Trajectory, Waypoint
        from repro.util.geo import GeoPoint

        platform.device.set_trajectory(
            Trajectory([Waypoint(0.0, GeoPoint(*SITE))])
        )
        events = []
        _register(context, events)
        manager.add_proximity_alert(*SITE, 500.0, NO_EXPIRATION, Intent("PROX"))
        platform.run_for(10_000.0)
        assert events == [True]


class TestSdkVersionSwitch:
    def test_m5_takes_intent(self, platform, manager):
        manager.add_proximity_alert(*SITE, 500.0, NO_EXPIRATION, Intent("PROX"))

    def test_m5_rejects_pending_intent(self, platform, context, manager):
        pending = PendingIntent.get_broadcast(context, 0, Intent("PROX"))
        with pytest.raises(IllegalArgumentException):
            manager.add_proximity_alert(*SITE, 500.0, NO_EXPIRATION, pending)

    def test_v10_requires_pending_intent(self, device):
        platform = AndroidPlatform(device, sdk_version=SdkVersion.V1_0)
        platform.install("app", {ACCESS_FINE_LOCATION})
        context = platform.new_context("app")
        manager = context.get_system_service(Context.LOCATION_SERVICE)
        with pytest.raises(IllegalArgumentException):
            manager.add_proximity_alert(*SITE, 500.0, NO_EXPIRATION, Intent("PROX"))
        pending = PendingIntent.get_broadcast(context, 0, Intent("PROX"))
        manager.add_proximity_alert(*SITE, 500.0, NO_EXPIRATION, pending)

    def test_v10_alerts_fire_through_pending_intent(self, device):
        platform = AndroidPlatform(device, sdk_version=SdkVersion.V1_0)
        platform.install("app", {ACCESS_FINE_LOCATION})
        context = platform.new_context("app")
        manager = context.get_system_service(Context.LOCATION_SERVICE)
        events = []
        _register(context, events)
        pending = PendingIntent.get_broadcast(context, 0, Intent("PROX"))
        manager.add_proximity_alert(*SITE, 500.0, NO_EXPIRATION, pending)
        platform.run_for(200_000.0)
        assert events == [True, False, True]


class TestLocationValue:
    def test_distance_to(self):
        a = Location(0.0, 0.0)
        b = Location(1.0, 0.0)
        assert a.distance_to(b) == pytest.approx(111_195, rel=0.01)

    def test_accessors(self):
        location = Location(1.0, 2.0, 3.0, accuracy_m=4.0, time_ms=5.0, speed_mps=6.0)
        assert location.get_latitude() == 1.0
        assert location.get_longitude() == 2.0
        assert location.get_altitude() == 3.0
        assert location.get_accuracy() == 4.0
        assert location.get_time() == 5.0
        assert location.get_speed() == 6.0
        assert location.get_provider() == "gps"
