"""Tests for the proxy documentation renderer."""

import pytest

from repro.core.plugin.docs import (
    instrumentation_points,
    render_proxy_markdown,
    render_registry_markdown,
)
from repro.core.proxies import standard_registry


class TestProxyPage:
    def test_location_page_covers_three_planes(self):
        page = render_proxy_markdown(standard_registry().descriptor("Location"))
        assert "# Location proxy" in page
        assert "## Interface (semantic plane)" in page
        assert "`addProximityAlert(" in page
        assert "## Language types (syntactic planes)" in page
        assert "### java (callback style: object)" in page
        assert "### javascript (callback style: function)" in page
        assert "## Platform bindings (binding planes)" in page
        assert "com.ibm.S60.location.LocationProxy" in page
        assert "`preferredResponseTime`" in page
        assert "NO_REQUIREMENT, LOW, MEDIUM, HIGH" in page
        assert "LocationException" in page

    def test_callback_documented(self):
        page = render_proxy_markdown(standard_registry().descriptor("Location"))
        assert "proximityEvent(refLatitude, refLongitude, refAltitude" in page

    def test_call_page_shows_only_two_platforms(self):
        page = render_proxy_markdown(standard_registry().descriptor("Call"))
        assert "### android" in page
        assert "### webview" in page
        assert "### s60" not in page

    def test_every_shipped_proxy_renders(self):
        registry = standard_registry()
        for interface in registry.interfaces():
            page = render_proxy_markdown(registry.descriptor(interface))
            assert page.startswith(f"# {interface} proxy")
            assert "Implementation:" in page


class TestInstrumentationPoints:
    def test_every_semantic_method_is_listed(self):
        descriptor = standard_registry().descriptor("Location")
        points = instrumentation_points(descriptor)
        methods = {point["method"] for point in points}
        assert "getLocation" in methods
        assert "addProximityAlert" in methods

    def test_span_names_follow_the_vocabulary(self):
        descriptor = standard_registry().descriptor("Http")
        for point in instrumentation_points(descriptor):
            assert point["spans"][0] == f"dispatch:{point['method']}"
            assert point["spans"][1] == f"resilience:{point['method']}"
            assert point["spans"][2] == f"binding:{point['method']}"
            assert point["spans"][3].startswith("substrate:")
            assert point["metrics"]


class TestCatalogue:
    def test_coverage_matrix(self):
        catalogue = render_registry_markdown(standard_registry())
        assert "# MobiVine proxy catalogue" in catalogue
        assert "| Call | android, webview |" in catalogue
        assert "| Location | android, s60, webview |" in catalogue

    def test_contains_all_pages(self):
        catalogue = render_registry_markdown(standard_registry())
        for interface in standard_registry().interfaces():
            assert f"# {interface} proxy" in catalogue

    def test_checked_in_catalogue_is_current(self):
        """docs/PROXIES.md is generated; fail if it drifts from the
        descriptors (regenerate with the snippet in its test)."""
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[3] / "docs" / "PROXIES.md"
        assert path.read_text() == render_registry_markdown(standard_registry())
