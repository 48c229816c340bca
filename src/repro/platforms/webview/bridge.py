"""The JS ↔ Java bridge with WebView marshalling rules.

``add_javascript_interface(obj, "SmsWrapperFactory")`` exposes a Java-side
object to the page.  JS calls are mediated by :class:`JsBridgeObject`:

* only ``str``/``int``/``float``/``bool``/``None`` arguments may cross;
* only those types may be returned;
* a Java exception surfaces as an untyped :class:`JsBridgeError`;
* every crossing charges the platform's bridge latency for that method.

These rules are the load-bearing constraint behind the paper's
Notification Table design — the substrate enforces them instead of
trusting implementers to remember.
"""

from __future__ import annotations

from typing import Any, Dict, TYPE_CHECKING

from repro.platforms.webview.exceptions import BridgeMarshalError, JsBridgeError

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms.webview.platform import WebViewPlatform

#: Types allowed to cross the bridge in either direction.
_BRIDGE_PRIMITIVES = (str, int, float, bool, type(None))


def _check_crossing(value: Any, direction: str, method: str) -> None:
    if not isinstance(value, _BRIDGE_PRIMITIVES):
        raise BridgeMarshalError(
            f"{type(value).__name__} cannot cross the JS/Java bridge "
            f"({direction} {method!r}); only primitives may cross"
        )


class _BridgeMethod:
    """A callable JS stub for one Java method."""

    def __init__(
        self,
        platform: "WebViewPlatform",
        java_object: Any,
        method_name: str,
    ) -> None:
        self._platform = platform
        self._java_object = java_object
        self._method_name = method_name
        self._span_name = f"bridge:{method_name}"

    def __call__(self, *args: Any) -> Any:
        tracer = self._platform.device.obs.tracer
        if not tracer.enabled:
            return self._cross(args)
        with tracer.span(self._span_name, direction="js->java"):
            return self._cross(args)

    def _cross(self, args: tuple) -> Any:
        for arg in args:
            _check_crossing(arg, "into", self._method_name)
        self._platform.charge_bridge(self._method_name)
        faults = getattr(self._platform.device, "faults", None)
        if faults is not None and faults.active:
            if faults.decide("webview.bridge") is not None:
                # The crossing itself is lost: JS sees an untyped bridge
                # error, exactly as a real WebView surfaces a dead bridge.
                raise JsBridgeError(
                    "BridgeFault",
                    f"injected fault: bridge crossing {self._method_name!r} lost",
                )
        java_method = getattr(self._java_object, self._method_name)
        try:
            result = java_method(*args)
        except (BridgeMarshalError, JsBridgeError):
            raise
        except Exception as exc:  # Java exception escaping to JS: untyped
            raise JsBridgeError(type(exc).__name__, str(exc)) from exc
        _check_crossing(result, "out of", self._method_name)
        return result


class JsBridgeObject:
    """The JS-visible face of an injected Java object.

    Attribute access yields bridge-method stubs; there is no property
    access across the bridge (matching ``addJavascriptInterface``, which
    exposes methods only).  A stub is kept as an instance attribute after
    its first lookup, so later lookups are plain attribute reads; every
    call still goes through the full crossing.
    """

    def __init__(self, platform: "WebViewPlatform", java_object: Any, js_name: str) -> None:
        self._platform = platform
        self._java_object = java_object
        self._js_name = js_name

    def __getattr__(self, name: str) -> _BridgeMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        target = getattr(self._java_object, name, None)
        if not callable(target):
            raise BridgeMarshalError(
                f"{self._js_name}.{name} is not a bridged method "
                "(only public Java methods are exposed)"
            )
        stub = _BridgeMethod(self._platform, self._java_object, name)
        setattr(self, name, stub)
        return stub

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JsBridgeObject({self._js_name!r})"


class JavascriptBridge:
    """The per-WebView registry of injected Java objects."""

    def __init__(self, platform: "WebViewPlatform") -> None:
        self._platform = platform
        self._objects: Dict[str, JsBridgeObject] = {}

    def add_javascript_interface(self, java_object: Any, js_name: str) -> None:
        """Java API: expose ``java_object`` to the page as ``js_name``."""
        if not js_name or not js_name.isidentifier():
            raise ValueError(f"bad JS global name {js_name!r}")
        self._objects[js_name] = JsBridgeObject(self._platform, java_object, js_name)

    def lookup(self, js_name: str) -> JsBridgeObject:
        """JS side: resolve an injected global."""
        try:
            return self._objects[js_name]
        except KeyError:
            raise JsBridgeError(
                "ReferenceError", f"{js_name} is not defined"
            ) from None

    def names(self) -> list:
        return sorted(self._objects)
