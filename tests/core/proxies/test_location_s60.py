"""Tests for the S60 Location proxy binding — the gap-filling machinery."""

import pytest

from repro.apps.workforce import scenario
from repro.core.proxies import create_proxy
from repro.core.proxy.callbacks import ProximityListener
from repro.errors import ProxyPermissionError, ProxyPlatformError, ProxyPropertyError

SITE = scenario.SITE


class Recorder(ProximityListener):
    def __init__(self):
        self.events = []

    def proximity_event(self, ref_lat, ref_lon, ref_alt, current, entering):
        self.events.append(entering)


@pytest.fixture
def sc(s60_scenario):
    return s60_scenario


@pytest.fixture
def proxy(sc):
    return create_proxy("Location", sc.platform)


class TestGapFilling:
    def test_exit_events_synthesized(self, sc, proxy):
        """Native S60 has no exit events; the binding synthesizes them."""
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, recorder
        )
        sc.platform.run_for(200_000.0)
        assert recorder.events == [True, False, True]

    def test_reregistration_after_each_fire(self, sc, proxy):
        """The one-shot native listener is re-armed so the SECOND entry
        fires too — the uniform repeating semantics."""
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, recorder
        )
        sc.platform.run_for(200_000.0)
        assert recorder.events.count(True) == 2

    def test_expiration_emulated(self, sc, proxy):
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, 30.0, recorder
        )
        sc.platform.run_for(200_000.0)
        assert recorder.events == []

    def test_expiration_mid_flight_stops_events(self, sc, proxy):
        recorder = Recorder()
        # Expire at 70 s: entry (~55 s) fires, exit (~65s) may fire, second
        # entry (~175 s) must not.
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, 70.0, recorder
        )
        sc.platform.run_for(200_000.0)
        assert recorder.events.count(True) == 1

    def test_remove_alert_tears_down_machinery(self, sc, proxy):
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, recorder
        )
        proxy.remove_proximity_alert(recorder)
        sc.platform.run_for(200_000.0)
        assert recorder.events == []
        assert sc.platform.location_provider.proximity_registration_count == 0


class TestCriteriaProperties:
    def test_properties_feed_criteria(self, sc, proxy):
        proxy.set_property("horizontalAccuracy", 100)
        proxy.set_property("powerConsumption", "LOW")
        location = proxy.get_location()
        assert location.latitude != 0.0

    def test_unsatisfiable_accuracy_is_uniform_error(self, sc, proxy):
        proxy.set_property("horizontalAccuracy", 1)
        with pytest.raises(ProxyPlatformError, match="criteria"):
            proxy.get_location()

    def test_out_of_service_maps_to_uniform_error(self, sc, proxy):
        sc.platform.location_provider.out_of_service = True
        with pytest.raises(ProxyPlatformError):
            proxy.get_location()

    def test_missing_permission_maps_uniformly(self, sc):
        from repro.platforms.s60.packaging import (
            Jar,
            JarEntry,
            JadDescriptor,
            MidletSuite,
        )

        sc.platform.install_suite(
            MidletSuite(
                JadDescriptor("noperm"), Jar("n.jar", [JarEntry("A.class", 1)])
            )
        )
        sc.platform.location_provider.bind_suite("noperm")
        proxy = create_proxy("Location", sc.platform)
        with pytest.raises(ProxyPermissionError):
            proxy.get_location()

    @pytest.mark.parametrize(
        "key", ["preferredResponseTime", "horizontalAccuracy", "verticalAccuracy"]
    )
    def test_mistyped_criteria_rejected_at_set_property(self, proxy, key):
        """``preferredResponseTime = "fast"`` once made every
        ``getLocation`` fail with ProxyPlatformError (1005), blaming the
        platform for a configuration error."""
        with pytest.raises(ProxyPropertyError, match=key) as info:
            proxy.set_property(key, "fast")
        assert info.value.error_code == 1004
        assert proxy.get_location().latitude != 0.0

    def test_android_only_property_unknown_here(self, proxy):
        from repro.errors import ProxyPropertyError

        with pytest.raises(ProxyPropertyError):
            proxy.set_property("context", object())
