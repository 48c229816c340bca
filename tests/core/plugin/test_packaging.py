"""Tests for platform-specific plugin extensions (feature 4: embedding)."""

import pytest

from repro.core.plugin.packaging import (
    AndroidPlatformExtension,
    S60PlatformExtension,
    WebViewPlatformExtension,
    extension_for,
    proxy_jar,
)
from repro.core.plugin.toolkit import Project
from repro.errors import ConfigurationError
from repro.platforms.s60.packaging import Jar, JarEntry

#: interface → (JS file, wrapper factory global, wrapper global, factory
#: entry): every name a WebView project or page sees.
WEBVIEW_NAMES = {
    "Location": (
        "proxies/location_proxy.js",
        "LocationWrapperFactory",
        "LocationWrapper",
        "create_location_wrapper_instance",
    ),
    "Sms": (
        "proxies/sms_proxy.js",
        "SmsWrapperFactory",
        "SmsWrapper",
        "create_sms_wrapper_instance",
    ),
    "Call": (
        "proxies/call_proxy.js",
        "CallWrapperFactory",
        "CallWrapper",
        "create_call_wrapper_instance",
    ),
    "Http": (
        "proxies/http_proxy.js",
        "HttpWrapperFactory",
        "HttpWrapper",
        "create_http_wrapper_instance",
    ),
    "Contacts": (
        "proxies/contacts_proxy.js",
        "ContactsWrapperFactory",
        "ContactsWrapper",
        "create_contacts_wrapper_instance",
    ),
    "Calendar": (
        "proxies/calendar_proxy.js",
        "CalendarWrapperFactory",
        "CalendarWrapper",
        "create_calendar_wrapper_instance",
    ),
}


class TestAndroidExtension:
    def test_embed_wires_classpath(self):
        project = Project("app", "android")
        AndroidPlatformExtension().embed_proxy(project, "Location")
        assert "mobivine-location-android.jar" in project.classpath
        assert "libs/mobivine-location-android.jar" in project.resources

    def test_embed_idempotent(self):
        project = Project("app", "android")
        extension = AndroidPlatformExtension()
        extension.embed_proxy(project, "Sms")
        extension.embed_proxy(project, "Sms")
        assert project.classpath.count("mobivine-sms-android.jar") == 1


class TestS60Extension:
    def test_single_jar_merge_on_deploy(self):
        """The platform requires ONE MIDlet-suite jar: proxies merge in."""
        project = Project("wfm", "s60")
        extension = S60PlatformExtension()
        extension.embed_proxy(project, "Location")
        extension.embed_proxy(project, "Sms")
        app_jar = Jar("wfm.jar", [JarEntry("WFM.class", 2_048)])
        suite = extension.build_suite(project, app_jar)
        paths = [entry.path for entry in suite.jar.entries]
        assert "WFM.class" in paths
        assert "com/ibm/S60/location/LocationProxy.class" in paths
        assert "com/ibm/S60/sms/SmsProxy.class" in paths

    def test_jad_gains_proxy_permissions(self):
        project = Project("wfm", "s60")
        extension = S60PlatformExtension()
        extension.embed_proxy(project, "Location")
        extension.embed_proxy(project, "Http")
        suite = extension.build_suite(
            project, Jar("wfm.jar", [JarEntry("A.class", 1)])
        )
        assert "javax.microedition.location.Location" in suite.jad.permissions
        assert "javax.microedition.io.Connector.http" in suite.jad.permissions

    def test_no_call_jar_exists_for_s60(self):
        with pytest.raises(ConfigurationError):
            proxy_jar("s60", "Call")

    def test_unembedded_project_builds_plain_suite(self):
        project = Project("bare", "s60")
        extension = S60PlatformExtension()
        suite = extension.build_suite(
            project, Jar("bare.jar", [JarEntry("A.class", 1)])
        )
        assert len(suite.jar.entries) == 1
        assert suite.jad.permissions == []


class TestWebViewExtension:
    def test_embed_injects_js_and_wiring(self):
        project = Project("web", "webview", language="javascript")
        extension = WebViewPlatformExtension()
        extension.embed_proxy(project, "Location")
        assert "proxies/location_proxy.js" in project.files
        wiring = project.file("WebViewWiring.java").content
        assert "addJavascriptInterface" in wiring
        assert "LocationWrapper" in wiring

    def test_embed_idempotent(self):
        project = Project("web", "webview")
        extension = WebViewPlatformExtension()
        extension.embed_proxy(project, "Sms")
        extension.embed_proxy(project, "Sms")
        wiring = project.file("WebViewWiring.java").content
        wiring_lines = [l for l in wiring.splitlines() if "new SmsWrapper" in l]
        assert len(wiring_lines) == 1

    def test_install_wrappers_runtime_half(self, webview_scenario):
        webview = webview_scenario.platform.new_webview()
        extension = WebViewPlatformExtension()
        installed = extension.install_wrappers(
            webview,
            webview_scenario.platform,
            webview_scenario.new_context(),
            ["Location", "Sms", "Http", "Call"],
        )
        assert set(installed) == {"Location", "Sms", "Http", "Call"}
        assert set(webview.bridge.names()) >= {
            "LocationWrapper",
            "SmsWrapper",
            "HttpWrapper",
            "CallWrapper",
        }

    def test_unknown_interface_rejected(self, webview_scenario):
        webview = webview_scenario.platform.new_webview()
        with pytest.raises(ConfigurationError):
            WebViewPlatformExtension().install_wrappers(
                webview, webview_scenario.platform, webview_scenario.new_context(), ["Camera"]
            )

    @pytest.mark.parametrize("interface", list(WEBVIEW_NAMES))
    def test_embed_writes_the_js_file_and_wiring_line(self, interface):
        js_file, factory_name, wrapper_name, _ = WEBVIEW_NAMES[interface]
        project = Project("web", "webview", language="javascript")
        WebViewPlatformExtension().embed_proxy(project, interface)
        assert set(project.files) == {js_file, "WebViewWiring.java"}
        assert project.file(js_file).content == (
            f"// MobiVine {interface} JS proxy implementation\n"
        )
        assert project.resources == [js_file]
        assert project.file("WebViewWiring.java").content == (
            "// generated addJavascriptInterface wiring\n"
            f"webView.addJavascriptInterface(new {wrapper_name}(context), "
            f'"{wrapper_name}"); // + {factory_name}\n'
        )

    def test_install_wrappers_injects_exactly_the_derived_globals(
        self, webview_scenario
    ):
        webview = webview_scenario.platform.new_webview()
        installed = WebViewPlatformExtension().install_wrappers(
            webview,
            webview_scenario.platform,
            webview_scenario.new_context(),
            list(WEBVIEW_NAMES),
        )
        assert list(installed) == list(WEBVIEW_NAMES)
        assert webview.bridge.names() == sorted(
            name
            for _, factory_name, wrapper_name, _ in WEBVIEW_NAMES.values()
            for name in (factory_name, wrapper_name)
        )
        window = webview.load_page(lambda w: None)
        for _, factory_name, _, entry in WEBVIEW_NAMES.values():
            factory = window.bridge_object(factory_name)
            assert [getattr(factory, entry)() for _ in range(2)] == [1, 2]

    def test_embed_rejects_an_interface_without_a_webview_binding(self):
        project = Project("web", "webview", language="javascript")
        with pytest.raises(ConfigurationError):
            WebViewPlatformExtension().embed_proxy(project, "Camera")
        assert project.files == {}


class TestExtensionFactory:
    def test_known_platforms(self):
        assert isinstance(extension_for("android"), AndroidPlatformExtension)
        assert isinstance(extension_for("s60"), S60PlatformExtension)
        assert isinstance(extension_for("webview"), WebViewPlatformExtension)

    def test_unknown_platform(self):
        with pytest.raises(ConfigurationError):
            extension_for("palm")
