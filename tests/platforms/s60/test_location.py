"""Tests for the JSR-179-style S60 location stack."""

import pytest

from repro.device.device import MobileDevice
from repro.device.gps import TOPIC_FIX
from repro.platforms.s60.exceptions import (
    IllegalArgumentException,
    LocationException,
    NullPointerException,
    SecurityException,
)
from repro.platforms.s60.location import (
    Coordinates,
    Criteria,
    LocationListener,
    LocationProvider,
    ProximityListener,
    PERMISSION_LOCATION,
)
from repro.platforms.s60.packaging import Jar, JarEntry, JadDescriptor, MidletSuite
from repro.platforms.s60.platform import S60Platform

SITE = Coordinates(28.6, 77.2)


@pytest.fixture
def platform(device):
    platform = S60Platform(device)
    suite = MidletSuite(
        JadDescriptor("app", permissions=[PERMISSION_LOCATION]),
        Jar("app.jar", [JarEntry("A.class", 1)]),
    )
    platform.install_suite(suite)
    platform.location_provider.bind_suite("app")
    return platform


class RecordingListener(ProximityListener):
    def __init__(self):
        self.events = []
        self.monitoring = []

    def proximity_event(self, coordinates, location):
        self.events.append(location)

    def monitoring_state_changed(self, active):
        self.monitoring.append(active)


class TestCoordinates:
    def test_accessors(self):
        coordinates = Coordinates(1.0, 2.0, 3.0)
        assert coordinates.get_latitude() == 1.0
        assert coordinates.get_longitude() == 2.0
        assert coordinates.get_altitude() == 3.0

    def test_distance(self):
        assert Coordinates(0.0, 0.0).distance(Coordinates(1.0, 0.0)) == pytest.approx(
            111_195, rel=0.01
        )

    def test_invalid_rejected(self):
        with pytest.raises(IllegalArgumentException):
            Coordinates(91.0, 0.0)
        with pytest.raises(IllegalArgumentException):
            Coordinates(0.0, 181.0)


class TestCriteria:
    def test_defaults_are_no_requirement(self):
        criteria = Criteria()
        assert criteria.get_horizontal_accuracy() == Criteria.NO_REQUIREMENT
        assert criteria.get_preferred_response_time() == Criteria.NO_REQUIREMENT

    def test_setters_validate(self):
        criteria = Criteria()
        with pytest.raises(IllegalArgumentException):
            criteria.set_horizontal_accuracy(-1)
        with pytest.raises(IllegalArgumentException):
            criteria.set_preferred_response_time(-1)
        with pytest.raises(IllegalArgumentException):
            criteria.set_preferred_power_consumption(42)

    def test_power_levels(self):
        criteria = Criteria()
        criteria.set_preferred_power_consumption(Criteria.POWER_USAGE_LOW)
        assert criteria.get_preferred_power_consumption() == Criteria.POWER_USAGE_LOW


class TestProviderSelection:
    def test_default_criteria_gives_provider(self, platform):
        provider = platform.location_provider.get_instance(None)
        assert provider is not None
        assert provider.get_state() == LocationProvider.AVAILABLE

    def test_unsatisfiable_accuracy_returns_none(self, platform):
        criteria = Criteria()
        criteria.set_horizontal_accuracy(1)
        assert platform.location_provider.get_instance(criteria) is None

    def test_out_of_service_raises(self, platform):
        platform.location_provider.out_of_service = True
        with pytest.raises(LocationException):
            platform.location_provider.get_instance(None)


class TestGetLocation:
    def test_blocking_read(self, platform):
        provider = platform.location_provider.get_instance(None)
        location = provider.get_location(-1)
        assert location.is_valid()
        assert location.get_qualified_coordinates().get_latitude() != 0.0

    def test_invalid_timeout_rejected(self, platform):
        provider = platform.location_provider.get_instance(None)
        with pytest.raises(IllegalArgumentException):
            provider.get_location(0)

    def test_timeout_exceeded_raises(self, device):
        from repro.util.latency import LatencyModel

        platform = S60Platform(
            device, latency=LatencyModel(mean_ms={"s60.getLocation": 5_000.0})
        )
        provider = platform.location_provider.get_instance(None)
        with pytest.raises(LocationException, match="timed out"):
            provider.get_location(1)

    def test_out_of_service_raises(self, platform):
        provider = platform.location_provider.get_instance(None)
        platform.location_provider.out_of_service = True
        with pytest.raises(LocationException):
            provider.get_location(-1)

    def test_requires_permission(self, device):
        platform = S60Platform(device)
        suite = MidletSuite(
            JadDescriptor("noperm"), Jar("n.jar", [JarEntry("A.class", 1)])
        )
        platform.install_suite(suite)
        platform.location_provider.bind_suite("noperm")
        provider = platform.location_provider.get_instance(None)
        with pytest.raises(SecurityException):
            provider.get_location(-1)


class TestProximityListeners:
    def test_one_shot_semantics(self, platform):
        """The listener fires ONCE on entry and is auto-removed."""
        listener = RecordingListener()
        platform.location_provider.add_proximity_listener(listener, SITE, 500.0)
        assert platform.location_provider.proximity_registration_count == 1
        platform.run_for(200_000.0)
        # commute trajectory enters the site twice; native fires only once
        assert len(listener.events) == 1
        assert platform.location_provider.proximity_registration_count == 0

    def test_no_exit_events(self, platform):
        """The native API has no exit notion at all."""
        listener = RecordingListener()
        platform.location_provider.add_proximity_listener(listener, SITE, 500.0)
        platform.run_for(200_000.0)
        assert len(listener.events) == 1  # only the single entry

    def test_entry_delivers_the_entering_fix(self, platform, device):
        """Registrations that fire on one fix share one Location built
        from that fix."""
        fixes = []
        device.bus.subscribe(TOPIC_FIX, lambda topic, fix: fixes.append(fix))
        first, second = RecordingListener(), RecordingListener()
        provider = platform.location_provider
        provider.add_proximity_listener(first, SITE, 500.0)
        provider.add_proximity_listener(second, SITE, 500.0)
        platform.run_for(200_000.0)
        assert len(first.events) == len(second.events) == 1
        location = first.events[0]
        assert second.events[0] is location
        (fix,) = [f for f in fixes if f.timestamp_ms == location.get_timestamp()]
        coordinates = location.get_qualified_coordinates()
        assert (
            coordinates.get_latitude(),
            coordinates.get_longitude(),
            coordinates.get_altitude(),
        ) == (fix.point.latitude, fix.point.longitude, fix.point.altitude)
        assert location.get_speed() == fix.speed_mps
        assert location.is_valid()

    def test_monitoring_state_callbacks(self, platform):
        listener = RecordingListener()
        platform.location_provider.add_proximity_listener(listener, SITE, 500.0)
        assert listener.monitoring == [True]
        platform.location_provider.remove_proximity_listener(listener)
        assert listener.monitoring == [True, False]

    def test_null_listener_rejected(self, platform):
        with pytest.raises(NullPointerException):
            platform.location_provider.add_proximity_listener(None, SITE, 500.0)

    def test_negative_radius_rejected(self, platform):
        with pytest.raises(IllegalArgumentException):
            platform.location_provider.add_proximity_listener(
                RecordingListener(), SITE, -5.0
            )

    def test_remove_unfired_listener(self, platform):
        listener = RecordingListener()
        platform.location_provider.add_proximity_listener(listener, SITE, 500.0)
        platform.location_provider.remove_proximity_listener(listener)
        platform.run_for(200_000.0)
        assert listener.events == []

    def test_requires_permission(self, device):
        platform = S60Platform(device)
        suite = MidletSuite(
            JadDescriptor("noperm"), Jar("n.jar", [JarEntry("A.class", 1)])
        )
        platform.install_suite(suite)
        platform.location_provider.bind_suite("noperm")
        with pytest.raises(SecurityException):
            platform.location_provider.add_proximity_listener(
                RecordingListener(), SITE, 500.0
            )


class TestLocationListener:
    def test_periodic_updates(self, platform):
        updates = []

        class Listener(LocationListener):
            def location_updated(self, provider, location):
                updates.append(location)

        provider = platform.location_provider.get_instance(None)
        provider.set_location_listener(Listener(), 5, -1, -1)
        platform.run_for(30_000.0)
        assert len(updates) >= 4

    def test_clearing_listener_stops_updates(self, platform):
        updates = []

        class Listener(LocationListener):
            def location_updated(self, provider, location):
                updates.append(location)

        provider = platform.location_provider.get_instance(None)
        provider.set_location_listener(Listener(), 5, -1, -1)
        platform.run_for(20_000.0)
        count = len(updates)
        provider.set_location_listener(None, -1, -1, -1)
        platform.run_for(20_000.0)
        assert len(updates) == count
