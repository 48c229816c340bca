"""Tests for the MProxy base class."""

import pytest

from repro.core.proxies import standard_registry
from repro.core.proxy.base import MProxy
from repro.errors import (
    DescriptorError,
    ProxyError,
    ProxyInvalidArgumentError,
    ProxyPlatformError,
    ProxyPropertyError,
)


class LocationShapedProxy(MProxy):
    interface = "Location"


class TestConstruction:
    def test_interface_mismatch_rejected(self):
        class WrongProxy(MProxy):
            interface = "Sms"

        descriptor = standard_registry().descriptor("Location")
        with pytest.raises(ProxyError, match="Sms"):
            WrongProxy(descriptor, "android")

    def test_missing_binding_rejected(self):
        class CallShaped(MProxy):
            interface = "Call"

        descriptor = standard_registry().descriptor("Call")
        with pytest.raises(Exception):
            CallShaped(descriptor, "s60")

    def test_property_set_from_binding_plane(self):
        descriptor = standard_registry().descriptor("Location")
        proxy = LocationShapedProxy(descriptor, "s60")
        assert "preferredResponseTime" in proxy.properties.known_keys()
        assert "context" not in proxy.properties.known_keys()  # android-only


class TestPropertyApi:
    def test_set_get_property(self):
        descriptor = standard_registry().descriptor("Location")
        proxy = LocationShapedProxy(descriptor, "s60")
        proxy.set_property("preferredResponseTime", 500)
        assert proxy.get_property("preferredResponseTime") == 500

    def test_invalid_property_value(self):
        descriptor = standard_registry().descriptor("Location")
        proxy = LocationShapedProxy(descriptor, "s60")
        with pytest.raises(ProxyPropertyError):
            proxy.set_property("powerConsumption", "TURBO")


class TestValidationAndGuard:
    def test_argument_validation_uses_semantic_plane(self):
        descriptor = standard_registry().descriptor("Location")
        proxy = LocationShapedProxy(descriptor, "android")
        with pytest.raises(ProxyInvalidArgumentError):
            proxy._validate_arguments("addProximityAlert", latitude=200.0)
        proxy._validate_arguments("addProximityAlert", latitude=20.0)

    def test_argument_errors_keep_the_dimension_message(self):
        descriptor = standard_registry().descriptor("Location")
        proxy = LocationShapedProxy(descriptor, "android")
        with pytest.raises(ProxyInvalidArgumentError) as info:
            proxy._validate_arguments("addProximityAlert", radius=0.0, latitude=True)
        assert str(info.value) == "length.radius: 0.0 below minimum 1e-09"
        assert isinstance(info.value.__cause__, ValueError)

    def test_unknown_method_or_parameter_is_a_descriptor_error(self):
        descriptor = standard_registry().descriptor("Location")
        proxy = LocationShapedProxy(descriptor, "android")
        with pytest.raises(DescriptorError, match="has no method 'teleport'"):
            proxy._validate_arguments("teleport", latitude=1.0)
        with pytest.raises(DescriptorError, match="has no parameter 'speed'"):
            proxy._validate_arguments("addProximityAlert", latitude=1.0, speed=3)
        # Only validated arguments are looked up: a call without any runs.
        assert proxy._call("teleport", lambda: "ran") == "ran"

    def test_guard_maps_platform_exceptions(self):
        from repro.platforms.s60.exceptions import LocationException

        def down():
            raise LocationException("down")

        descriptor = standard_registry().descriptor("Location")
        proxy = LocationShapedProxy(descriptor, "s60")
        with pytest.raises(ProxyPlatformError):
            proxy._call("getLocation", down)

    def test_guard_passes_uniform_errors_through(self):
        def uniform():
            raise ProxyInvalidArgumentError("already uniform")

        descriptor = standard_registry().descriptor("Location")
        proxy = LocationShapedProxy(descriptor, "s60")
        with pytest.raises(ProxyInvalidArgumentError, match="already uniform"):
            proxy._call("x", uniform)

    def test_call_validates_before_running_the_thunk(self):
        ran = []
        descriptor = standard_registry().descriptor("Location")
        proxy = LocationShapedProxy(descriptor, "android")
        with pytest.raises(ProxyInvalidArgumentError):
            proxy._call("addProximityAlert", lambda: ran.append(1), latitude=200.0)
        assert ran == []
        assert proxy._call("addProximityAlert", lambda: "ok", latitude=20.0) == "ok"

    def test_call_maps_platform_exceptions_under_a_runtime(self):
        from repro.core.resilience import ResiliencePolicy, ResilienceRuntime
        from repro.platforms.s60.exceptions import LocationException
        from repro.util.clock import Scheduler

        def down():
            raise LocationException("down")

        descriptor = standard_registry().descriptor("Location")
        proxy = LocationShapedProxy(descriptor, "s60")
        runtime = ResilienceRuntime(ResiliencePolicy(), Scheduler())
        proxy.attach_resilience(runtime)
        with pytest.raises(ProxyPlatformError):
            proxy._call("getLocation", down)
        assert runtime.stats.failures == 1
