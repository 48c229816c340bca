"""Proxy instantiation from descriptors.

The binding plane names its implementation module with a Java-style
qualified class string (``com.ibm.proxies.android.location.LocationProxyImpl``);
this module maps those strings to the Python classes that realize them and
builds proxies for a live platform object.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Type

from repro.core.descriptor.registry import ProxyRegistry
from repro.core.proxy.base import MProxy
from repro.core.resilience import (
    ResiliencePolicy,
    ResilienceRuntime,
    SmsRedeliveryQueue,
)
from repro.errors import ProxyUnavailableError, RegistryError

#: implementation-class string → Python class.
_IMPLEMENTATIONS: Dict[str, Type[MProxy]] = {}


def register_implementation(class_name: str, cls: Type[MProxy]) -> None:
    """Bind an implementation-class string to a Python proxy class."""
    _IMPLEMENTATIONS[class_name] = cls


def implementation_class(class_name: str) -> Type[MProxy]:
    """Resolve an implementation-class string."""
    try:
        return _IMPLEMENTATIONS[class_name]
    except KeyError:
        raise RegistryError(
            f"no implementation registered for {class_name!r}"
        ) from None


_STANDARD_REGISTRY: Optional[ProxyRegistry] = None


#: Packaged descriptor documents, loaded in this order.
SHIPPED_DESCRIPTOR_FILES = (
    "location.xml",
    "sms.xml",
    "call.xml",
    "http.xml",
    "contacts.xml",
    "calendar.xml",
)


def descriptors_dir() -> "pathlib.Path":
    """Directory holding the shipped descriptor XML documents."""
    import pathlib

    return pathlib.Path(__file__).resolve().parent / "descriptors"


def standard_registry() -> ProxyRegistry:
    """The registry holding the shipped proxies (built once).

    Descriptors load from the packaged XML documents in
    ``repro/core/proxies/descriptors/``, the only source of each
    descriptor: the descriptors really are data, schema-validated on
    load.
    """
    global _STANDARD_REGISTRY
    if _STANDARD_REGISTRY is None:
        registry = ProxyRegistry()
        base = descriptors_dir()
        for file_name in SHIPPED_DESCRIPTOR_FILES:
            registry.register_xml((base / file_name).read_text())
        _STANDARD_REGISTRY = registry
    return _STANDARD_REGISTRY


@functools.cache
def load_bindings() -> None:
    """Import every binding module, so each has registered its classes
    (once: the callers build proxies and WebView wrappers per world)."""
    import repro.core.proxies.location.android  # noqa: F401
    import repro.core.proxies.location.s60  # noqa: F401
    import repro.core.proxies.location.webview  # noqa: F401
    import repro.core.proxies.sms.android  # noqa: F401
    import repro.core.proxies.sms.s60  # noqa: F401
    import repro.core.proxies.sms.webview  # noqa: F401
    import repro.core.proxies.call.android  # noqa: F401
    import repro.core.proxies.call.webview  # noqa: F401
    import repro.core.proxies.http.android  # noqa: F401
    import repro.core.proxies.http.s60  # noqa: F401
    import repro.core.proxies.http.webview  # noqa: F401
    import repro.core.proxies.contacts.android  # noqa: F401
    import repro.core.proxies.contacts.s60  # noqa: F401
    import repro.core.proxies.contacts.webview  # noqa: F401
    import repro.core.proxies.calendar.android  # noqa: F401
    import repro.core.proxies.calendar.s60  # noqa: F401
    import repro.core.proxies.calendar.webview  # noqa: F401


def create_proxy(
    interface: str,
    platform_object,
    registry: Optional[ProxyRegistry] = None,
    *,
    resilience=None,
) -> MProxy:
    """Instantiate the proxy binding of ``interface`` for a live platform.

    ``platform_object`` is an ``AndroidPlatform``, ``S60Platform`` or
    ``WebViewPlatform``; its ``platform_name`` selects the binding plane.
    A missing binding raises :class:`~repro.errors.ProxyUnavailableError`
    — e.g. ``create_proxy("Call", s60_platform)``, the capability gap the
    paper reports.

    ``resilience`` selects the guard attached to the new proxy:

    * ``None`` (default) — attach the passthrough-safe baseline
      :class:`~repro.core.resilience.ResiliencePolicy` (one attempt, no
      breaker; behaviourally identical to a bare proxy but with
      counters);
    * a :class:`~repro.core.resilience.ResiliencePolicy` — attach it
      (SMS proxies additionally get a ``redelivery_queue`` when the
      policy configures redelivery);
    * ``False`` — attach nothing (a completely bare proxy).

    The device's observability hub (``device.obs``) is attached to the
    proxy and its resilience runtime, so enabling tracing on the device
    instruments every proxied invocation with no per-binding wiring.
    """
    load_bindings()
    registry = registry or standard_registry()
    platform_name = platform_object.platform_name
    try:
        binding = registry.binding(interface, platform_name)
    except RegistryError as exc:
        raise ProxyUnavailableError(str(exc)) from exc
    cls = implementation_class(binding.implementation_class)
    proxy = cls(registry.descriptor(interface), platform_object)
    observability = getattr(platform_object.device, "obs", None)
    if observability is not None:
        proxy.attach_observability(observability)
    if resilience is not False:
        policy = resilience if resilience is not None else ResiliencePolicy()
        runtime = ResilienceRuntime(
            policy,
            platform_object.scheduler,
            label=f"{interface}/{platform_name}",
            observability=observability,
        )
        proxy.attach_resilience(runtime)
        if interface == "Sms" and policy.redelivery is not None:
            proxy.redelivery_queue = SmsRedeliveryQueue(
                platform_object.scheduler,
                proxy.send_text_message,
                policy.redelivery,
            )
    return proxy
