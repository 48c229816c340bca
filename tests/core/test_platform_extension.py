"""The extension story end-to-end (paper Section 3.3).

"The MobiVine architecture can be easily extended to absorb new
platforms.  In this case, if the semantic and syntactic planes already
exist for other platforms, one requires to publish only the binding
artifacts for proxies corresponding to a new platform."

This test plays the vendor of a fourth, BREW-like platform: it registers
the platform name, implements a minimal substrate, publishes *only* a
binding plane for the existing Http proxy, and gets a working uniform
proxy plus a populated drawer — without touching the semantic or
syntactic planes.
"""

import pytest

from repro.core.descriptor.model import (
    BindingPlane,
    ExceptionSpec,
    register_platform,
    known_platforms,
    platform_language,
)
from repro.core.descriptor.registry import ProxyRegistry
from repro.core.descriptor.xml_io import descriptor_from_xml
from repro.core.plugin.drawer import ProxyDrawer
from repro.core.proxies.factory import (
    create_proxy,
    descriptors_dir,
    register_implementation,
)
from repro.core.proxies.http.api import HttpProxy
from repro.core.proxy.datatypes import HttpResult
from repro.device.device import MobileDevice
from repro.device.network import HttpRequest, HttpResponse, NetworkError
from repro.errors import DescriptorError
from repro.platforms.base import PlatformBase

BREW_IMPL = "com.vendor.brew.http.HttpProxyImpl"


def _http_xml():
    """The shipped Http descriptor, whose planes the new platform reuses."""
    return (descriptors_dir() / "http.xml").read_text()


class BrewIOError(Exception):
    """The new platform's own transport exception."""


class BrewPlatform(PlatformBase):
    """A minimal BREW-like substrate: one blocking fetch call."""

    platform_name = "brew"

    def brew_fetch(self, method: str, url: str, body: str = "") -> tuple:
        """The platform's single native HTTP entry point."""
        from urllib.parse import urlparse

        parsed = urlparse(url)
        self.charge_native("brew.fetch")
        request = HttpRequest(
            method=method, host=parsed.netloc, path=parsed.path or "/", body=body
        )
        try:
            response = self.device.network.request(request)
        except NetworkError as exc:
            raise BrewIOError(str(exc)) from exc
        return response.status, response.body


class BrewHttpProxyImpl(HttpProxy):
    """The vendor's binding: uniform API over ``brew_fetch``."""

    def __init__(self, descriptor, platform: BrewPlatform) -> None:
        super().__init__(descriptor, "brew")
        self._platform = platform

    def get(self, url: str) -> HttpResult:
        status, body = self._call(
            "get", lambda: self._platform.brew_fetch("GET", url), url=url
        )
        return HttpResult(status=status, body=body)

    def post(self, url: str, body: str) -> HttpResult:
        status, response_body = self._call(
            "post",
            lambda: self._platform.brew_fetch("POST", url, body),
            url=url,
            body=body,
        )
        return HttpResult(status=status, body=response_body)


@pytest.fixture(scope="module", autouse=True)
def _vendor_setup():
    """What the vendor ships: a platform name and an implementation class."""
    register_platform("brew", "java")
    register_implementation(BREW_IMPL, BrewHttpProxyImpl)


def _brew_binding() -> BindingPlane:
    return BindingPlane(
        platform="brew",
        language="java",
        implementation_class=BREW_IMPL,
        exceptions=(
            ExceptionSpec("com.vendor.brew.BrewIOError", "ProxyPlatformError", 1005),
        ),
    )


class TestVocabulary:
    def test_platform_registered(self):
        assert "brew" in known_platforms()
        assert platform_language("brew") == "java"

    def test_reregistration_same_language_ok(self):
        register_platform("brew", "java")  # idempotent

    def test_language_conflict_rejected(self):
        with pytest.raises(DescriptorError):
            register_platform("brew", "javascript")

    def test_unknown_language_rejected(self):
        with pytest.raises(DescriptorError):
            register_platform("palm", "objective-c")

    def test_binding_language_must_match_registration(self):
        with pytest.raises(DescriptorError, match="brew"):
            BindingPlane(
                platform="brew",
                language="javascript",
                implementation_class="x.Y",
            )


class TestBindingOnlyExtension:
    def test_add_binding_reuses_existing_planes(self):
        registry = ProxyRegistry()
        registry.register_xml(_http_xml())
        registry.add_binding("Http", _brew_binding())
        descriptor = registry.descriptor("Http")
        # semantic + syntactic untouched, one binding added
        assert descriptor.semantic.method_names() == ["get", "post", "getAsync"]
        assert set(descriptor.platforms()) == {"android", "brew", "s60", "webview"}

    def test_drawer_immediately_shows_the_proxy(self):
        registry = ProxyRegistry()
        registry.register_xml(_http_xml())
        registry.add_binding("Http", _brew_binding())
        drawer = ProxyDrawer(registry, "brew")
        assert drawer.categories() == ["Http"]

    def test_schema_accepts_brew_bindings(self):
        from repro.core.descriptor.schema import validate_descriptor_xml
        from repro.core.descriptor.xml_io import descriptor_to_xml

        descriptor = descriptor_from_xml(_http_xml())
        descriptor.add_binding(_brew_binding())
        assert validate_descriptor_xml(descriptor_to_xml(descriptor)) == []

    def test_uniform_proxy_works_on_the_new_platform(self):
        registry = ProxyRegistry()
        registry.register_xml(_http_xml())
        registry.add_binding("Http", _brew_binding())
        device = MobileDevice("+1")
        platform = BrewPlatform(device)
        server = device.network.add_server("api.test")
        server.route("GET", "/ping", lambda r: HttpResponse(200, "brew pong"))
        proxy = create_proxy("Http", platform, registry=registry)
        result = proxy.get("http://api.test/ping")
        assert (result.status, result.body) == (200, "brew pong")

    def test_platform_exceptions_map_uniformly(self):
        from repro.errors import ProxyPlatformError

        registry = ProxyRegistry()
        registry.register_xml(_http_xml())
        registry.add_binding("Http", _brew_binding())
        device = MobileDevice("+1")
        platform = BrewPlatform(device)
        device.network.add_server("api.test")
        device.network.fail_next("brew radio down")
        proxy = create_proxy("Http", platform, registry=registry)
        with pytest.raises(ProxyPlatformError, match="BrewIOError"):
            proxy.get("http://api.test/ping")
