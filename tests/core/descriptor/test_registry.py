"""Tests for the proxy registry."""

import pytest

from repro.core.descriptor.model import BindingPlane
from repro.core.descriptor.registry import ProxyRegistry
from repro.core.descriptor.xml_io import descriptor_from_xml
from repro.core.proxies import standard_registry
from repro.core.proxies.factory import descriptors_dir
from repro.errors import DescriptorError, RegistryError


def _shipped_xml(interface):
    return (descriptors_dir() / f"{interface}.xml").read_text()


def _shipped(interface):
    return descriptor_from_xml(_shipped_xml(interface))


class TestRegistration:
    def test_register_and_lookup(self):
        registry = ProxyRegistry()
        registry.register(_shipped("location"))
        assert "Location" in registry
        assert registry.descriptor("Location").interface == "Location"

    def test_duplicate_rejected(self):
        registry = ProxyRegistry()
        registry.register(_shipped("location"))
        with pytest.raises(RegistryError):
            registry.register(_shipped("location"))

    def test_register_xml_validates_schema(self):
        registry = ProxyRegistry()
        with pytest.raises(DescriptorError, match="schema"):
            registry.register_xml(
                '<proxy interface="Bad"><semantic/></proxy>'
            )

    def test_register_xml_happy_path(self):
        registry = ProxyRegistry()
        registry.register_xml(_shipped_xml("location"))
        assert len(registry) == 1

    def test_unknown_interface(self):
        registry = ProxyRegistry()
        with pytest.raises(RegistryError):
            registry.descriptor("Ghost")


class TestBindingLookup:
    def test_binding_for_platform(self):
        registry = ProxyRegistry()
        registry.register(_shipped("location"))
        binding = registry.binding("Location", "s60")
        assert binding.implementation_class == "com.ibm.S60.location.LocationProxy"

    def test_missing_binding_names_alternatives(self):
        registry = ProxyRegistry()
        registry.register(_shipped("call"))
        with pytest.raises(RegistryError, match="android"):
            registry.binding("Call", "s60")

    def test_interfaces_for_platform(self):
        registry = ProxyRegistry()
        registry.register(_shipped("location"))
        registry.register(_shipped("call"))
        assert registry.interfaces_for_platform("s60") == ["Location"]
        assert registry.interfaces_for_platform("android") == ["Call", "Location"]


class TestExtension:
    def test_new_platform_publishes_binding_only(self):
        """The paper's extension story: semantic/syntactic planes are
        reused, a new platform adds just its binding artifacts."""
        registry = ProxyRegistry()
        descriptor = _shipped("call")
        registry.register(descriptor)
        # Pretend a vendor ships an S60 binding later (the platform gained
        # a call API): only a BindingPlane is published.
        registry.add_binding(
            "Call",
            BindingPlane(
                platform="s60",
                language="java",
                implementation_class="com.vendor.s60.CallProxy",
            ),
        )
        assert registry.binding("Call", "s60").implementation_class == (
            "com.vendor.s60.CallProxy"
        )
        assert "Call" in registry.interfaces_for_platform("s60")


class TestStandardRegistry:
    def test_contains_all_shipped_proxies(self):
        registry = standard_registry()
        assert registry.interfaces() == [
            "Calendar",
            "Call",
            "Contacts",
            "Http",
            "Location",
            "Sms",
        ]

    def test_is_cached(self):
        assert standard_registry() is standard_registry()

    def test_s60_has_no_call(self):
        registry = standard_registry()
        assert "Call" not in registry.interfaces_for_platform("s60")

    def test_every_binding_language_matches_platform(self):
        registry = standard_registry()
        for interface in registry.interfaces():
            descriptor = registry.descriptor(interface)
            for platform, binding in descriptor.bindings.items():
                expected = "javascript" if platform == "webview" else "java"
                assert binding.language == expected
