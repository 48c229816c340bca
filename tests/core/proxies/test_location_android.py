"""Tests for the Android Location proxy binding."""

import pytest

from repro.apps.workforce import scenario
from repro.core.proxies import create_proxy
from repro.core.proxy.callbacks import ProximityListener
from repro.core.proxy.datatypes import Location
from repro.core.resilience import chaos_policy
from repro.errors import (
    ProxyInvalidArgumentError,
    ProxyPermissionError,
    ProxyPropertyError,
)
from repro.platforms.android.versions import SdkVersion

SITE = scenario.SITE


class Recorder(ProximityListener):
    def __init__(self):
        self.events = []

    def proximity_event(self, ref_lat, ref_lon, ref_alt, current, entering):
        self.events.append((entering, current))


@pytest.fixture
def sc(android_scenario):
    return android_scenario


@pytest.fixture
def proxy(sc):
    proxy = create_proxy("Location", sc.platform)
    proxy.set_property("context", sc.new_context())
    return proxy


class TestGetLocation:
    def test_returns_uniform_location(self, proxy):
        location = proxy.get_location()
        assert isinstance(location, Location)
        assert location.latitude != 0.0

    def test_context_required(self, sc):
        proxy = create_proxy("Location", sc.platform)
        with pytest.raises(ProxyPropertyError, match="context"):
            proxy.get_location()

    def test_context_must_be_android_context(self, sc):
        proxy = create_proxy("Location", sc.platform)
        with pytest.raises(Exception, match="Context"):
            proxy.set_property("context", "not a context")
            proxy.get_location()

    def test_missing_permission_maps_to_uniform_error(self, sc):
        sc.platform.install("noperm", set())
        proxy = create_proxy("Location", sc.platform)
        proxy.set_property("context", sc.platform.new_context("noperm"))
        with pytest.raises(ProxyPermissionError):
            proxy.get_location()


class TestProximityAlerts:
    def test_enter_exit_enter_sequence(self, sc, proxy):
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, recorder
        )
        sc.platform.run_for(200_000.0)
        assert [entering for entering, _ in recorder.events] == [True, False, True]

    def test_event_carries_uniform_location(self, sc, proxy):
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, recorder
        )
        sc.platform.run_for(100_000.0)
        __, current = recorder.events[0]
        assert isinstance(current, Location)
        site_centre = Location(SITE.latitude, SITE.longitude)
        assert current.distance_to_m(site_centre) <= SITE.radius_m + 100.0

    def test_timer_expiration(self, sc, proxy):
        recorder = Recorder()
        # The device reaches the site at ~55 s; expire the alert at 30 s.
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, 30.0, recorder
        )
        sc.platform.run_for(200_000.0)
        assert recorder.events == []

    def test_remove_alert(self, sc, proxy):
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, recorder
        )
        proxy.remove_proximity_alert(recorder)
        sc.platform.run_for(200_000.0)
        assert recorder.events == []
        # broadcast registry cleaned up too
        assert sc.platform.broadcast_registry.registered_count() == 0

    def test_remove_unknown_listener_is_noop(self, proxy):
        proxy.remove_proximity_alert(Recorder())

    def test_invalid_latitude_rejected_uniformly(self, proxy):
        with pytest.raises(ProxyInvalidArgumentError):
            proxy.add_proximity_alert(200.0, 0.0, 0.0, 100.0, -1, Recorder())

    def test_invalid_radius_rejected_uniformly(self, proxy):
        with pytest.raises(ProxyInvalidArgumentError):
            proxy.add_proximity_alert(0.0, 0.0, 0.0, -5.0, -1, Recorder())

    def test_multiple_alerts_independent(self, sc, proxy):
        near, far = Recorder(), Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, near
        )
        proxy.add_proximity_alert(0.0, 0.0, 0.0, 100.0, -1, far)
        sc.platform.run_for(200_000.0)
        assert len(near.events) == 3
        assert far.events == []

    @pytest.mark.parametrize("profile", ["default", "chaos"])
    def test_refused_registration_leaks_no_receiver(self, sc, profile):
        resilience = chaos_policy("Location") if profile == "chaos" else None
        sc.platform.install("noperm", set())
        proxy = create_proxy("Location", sc.platform, resilience=resilience)
        proxy.set_property("context", sc.platform.new_context("noperm"))
        registry = sc.platform.broadcast_registry
        before = registry.registered_count()
        for _ in range(3):
            with pytest.raises(ProxyPermissionError):
                proxy.add_proximity_alert(
                    SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, Recorder()
                )
        assert registry.registered_count() == before


class TestSdkAbsorption:
    """The maintenance claim: identical proxy code on both SDK versions."""

    @pytest.mark.parametrize("sdk", [SdkVersion.M5_RC15, SdkVersion.V1_0])
    def test_same_code_both_sdks(self, sdk):
        sc = scenario.build_android(sdk_version=sdk)
        proxy = create_proxy("Location", sc.platform)
        proxy.set_property("context", sc.new_context())
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, recorder
        )
        sc.platform.run_for(200_000.0)
        assert [entering for entering, _ in recorder.events] == [True, False, True]

    def test_v10_binding_uses_pending_intent_internally(self):
        from repro.platforms.android.intents import PendingIntent

        sc = scenario.build_android(sdk_version=SdkVersion.V1_0)
        proxy = create_proxy("Location", sc.platform)
        proxy.set_property("context", sc.new_context())
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, recorder
        )
        target, _ = proxy._registrations[id(recorder)]
        assert isinstance(target, PendingIntent)
