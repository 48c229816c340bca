"""Platform-specific plugin extensions (plugin feature 4: embedding).

Each platform has its own deployment semantics; the extension absorbs
them (paper Section 4.2, "Platform Specific Extensions"):

* **Android** — proxy implementation jars join the project's classpath
  and resource structure.
* **S60** — same, *plus* the deployment-time merge of every chosen proxy
  jar into the application jar, because the platform requires a single
  J2ME MIDlet-suite bundle; the JAD gains the permissions the proxies
  need.
* **WebView** — the JS proxy implementation files are injected into the
  project and the Java 'Wrapper' objects are wired through
  ``add_javascript_interface`` calls.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.plugin.toolkit import CodeFile, Project
from repro.core.proxies.webview_common import (
    WrapperFactory,
    java_wrapper_class,
    js_file,
    js_globals,
)
from repro.errors import ConfigurationError
from repro.platforms.s60.packaging import Jar, JarEntry, JadDescriptor, MidletSuite

#: Proxy implementation artifacts per (platform, interface): jar name and
#: nominal entry sizes (bytes) for the packaging model.
_PROXY_JARS: Dict[str, Dict[str, List[JarEntry]]] = {
    "android": {
        "Location": [JarEntry("com/ibm/proxies/android/location/LocationProxyImpl.class", 6144)],
        "Sms": [JarEntry("com/ibm/proxies/android/sms/SmsProxyImpl.class", 4096)],
        "Call": [JarEntry("com/ibm/proxies/android/call/CallProxyImpl.class", 3072)],
        "Http": [JarEntry("com/ibm/proxies/android/http/HttpProxyImpl.class", 3584)],
        "Contacts": [JarEntry("com/ibm/proxies/android/contacts/ContactsProxyImpl.class", 4608)],
        "Calendar": [JarEntry("com/ibm/proxies/android/calendar/CalendarProxyImpl.class", 4352)],
    },
    "s60": {
        "Location": [JarEntry("com/ibm/S60/location/LocationProxy.class", 8192)],
        "Sms": [JarEntry("com/ibm/S60/sms/SmsProxy.class", 3584)],
        "Http": [JarEntry("com/ibm/S60/http/HttpProxy.class", 3072)],
        "Contacts": [JarEntry("com/ibm/S60/contacts/ContactsProxy.class", 5120)],
        "Calendar": [JarEntry("com/ibm/S60/calendar/CalendarProxy.class", 4864)],
    },
}

#: MIDP permissions each S60 proxy needs in the suite descriptor.
_S60_PERMISSIONS: Dict[str, List[str]] = {
    "Location": ["javax.microedition.location.Location"],
    "Sms": ["javax.wireless.messaging.sms.send"],
    "Http": ["javax.microedition.io.Connector.http"],
    "Contacts": [
        "javax.microedition.pim.ContactList.read",
        "javax.microedition.pim.ContactList.write",
    ],
    "Calendar": [
        "javax.microedition.pim.EventList.read",
        "javax.microedition.pim.EventList.write",
    ],
}

def proxy_jar(platform: str, interface: str) -> Jar:
    """The implementation jar artifact for (platform, interface)."""
    try:
        entries = _PROXY_JARS[platform][interface]
    except KeyError:
        raise ConfigurationError(
            f"no {platform} proxy jar for interface {interface!r}"
        ) from None
    return Jar(f"mobivine-{interface.lower()}-{platform}.jar", entries)


class AndroidPlatformExtension:
    """Embedding rules for Android projects."""

    platform = "android"

    def embed_proxy(self, project: Project, interface: str) -> None:
        """Wire a proxy's jar into the project (idempotent)."""
        jar = proxy_jar("android", interface)
        project.add_classpath_entry(jar.name)
        project.add_resource(f"libs/{jar.name}")


class S60PlatformExtension:
    """Embedding + deployment rules for S60 projects."""

    platform = "s60"

    def __init__(self) -> None:
        self._chosen: Dict[str, List[str]] = {}

    def embed_proxy(self, project: Project, interface: str) -> None:
        """Wire a proxy's jar into the project and remember it for the
        deployment-time merge."""
        jar = proxy_jar("s60", interface)
        project.add_classpath_entry(jar.name)
        chosen = self._chosen.setdefault(project.name, [])
        if interface not in chosen:
            chosen.append(interface)

    def chosen_interfaces(self, project: Project) -> List[str]:
        return list(self._chosen.get(project.name, []))

    def build_suite(
        self,
        project: Project,
        application_jar: Jar,
        jad: Optional[JadDescriptor] = None,
    ) -> MidletSuite:
        """Deployment: merge chosen proxy jars into the application jar.

        The platform requires one bundle, so the suite jar contains the
        application classes *and* every proxy implementation; the JAD
        gains the MIDP permissions those proxies need.
        """
        descriptor = jad or JadDescriptor(midlet_name=project.name)
        proxy_jars = [
            proxy_jar("s60", interface)
            for interface in self.chosen_interfaces(project)
        ]
        merged = application_jar.merged_with(*proxy_jars)
        for interface in self.chosen_interfaces(project):
            for permission in _S60_PERMISSIONS.get(interface, []):
                descriptor.require_permission(permission)
        return MidletSuite(jad=descriptor, jar=merged)


class WebViewPlatformExtension:
    """Embedding rules for WebView projects.

    Two halves: at *build* time, inject the JS proxy implementation files
    and generate the ``addJavascriptInterface`` wiring source; at *run*
    time, actually install the Java wrapper objects into a live WebView.
    """

    platform = "webview"

    def embed_proxy(self, project: Project, interface: str) -> None:
        """Inject the JS implementation file and wiring code."""
        java_wrapper_class(interface)  # no WebView binding: ConfigurationError
        js_name = js_file(interface)
        if js_name not in project.files:
            project.add_file(
                CodeFile(
                    name=js_name,
                    content=f"// MobiVine {interface} JS proxy implementation\n",
                    language="javascript",
                )
            )
        project.add_resource(js_name)
        wiring_name = "WebViewWiring.java"
        if wiring_name not in project.files:
            project.add_file(
                CodeFile(
                    name=wiring_name,
                    content="// generated addJavascriptInterface wiring\n",
                    language="java",
                )
            )
        factory_name, wrapper_name = js_globals(interface)
        wiring = project.file(wiring_name)
        line = (
            f"webView.addJavascriptInterface(new {wrapper_name}(context), "
            f'"{wrapper_name}"); // + {factory_name}\n'
        )
        if line not in wiring.content:
            wiring.content += line

    def install_wrappers(self, webview, platform, context, interfaces: Iterable[str]) -> Dict[str, object]:
        """Run-time half: inject live Java wrapper objects into a WebView
        (each interface's wrapper factory and wrapper, under the globals
        its JS proxy looks up)."""
        installed = {}
        for interface in interfaces:
            wrapper = java_wrapper_class(interface)(platform, context)
            factory_name, wrapper_name = js_globals(interface)
            webview.add_javascript_interface(WrapperFactory(wrapper), factory_name)
            webview.add_javascript_interface(wrapper, wrapper_name)
            installed[interface] = wrapper
        return installed


def extension_for(platform: str):
    """Construct the right extension for a platform name."""
    extensions = {
        "android": AndroidPlatformExtension,
        "s60": S60PlatformExtension,
        "webview": WebViewPlatformExtension,
    }
    try:
        return extensions[platform]()
    except KeyError:
        raise ConfigurationError(f"no platform extension for {platform!r}") from None
