"""Shared plumbing for WebView (JavaScript) proxy bindings.

The paper's Figure 6 pattern, factored once for all six proxies:

* a **Java wrapper** (:class:`JavaWrapper`, minted through a
  :class:`WrapperFactory`) holding Android proxy instances keyed by
  integer handles (the ``swi`` handle in the figure) — bridge calls
  carry the handle because object references cannot cross;
* JSON envelopes for results and errors (exceptions cannot cross the
  bridge either, so uniform errors travel as ``{"error": code}``);
* a JS-side **notification handler** (the figure's ``notifHandler``) that
  polls the Java notification table and dispatches to local JS callbacks;
* :class:`JsProxy`, the JS-side proxy base: construction (by the factory
  or in page code), wrapper-instance minting and ``setProperty``
  forwarding.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional, Type

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.factory import standard_registry
from repro.core.proxy.base import MProxy
from repro.core.proxy.exceptions import code_to_error_class
from repro.errors import ProxyError
from repro.platforms.webview.exceptions import JsBridgeError
from repro.platforms.webview.notifications import NotificationTable
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import JsWindow

#: Default JS polling period for notification delivery (milliseconds).
DEFAULT_POLL_INTERVAL_MS = 500.0


# ---------------------------------------------------------------------------
# JSON envelopes (everything that crosses the bridge is a string)
# ---------------------------------------------------------------------------

def encode_ok(payload: Optional[Dict[str, Any]] = None) -> str:
    """Successful result envelope."""
    return json.dumps({"ok": True, "payload": payload or {}})


def encode_error(error: ProxyError) -> str:
    """Error envelope carrying the uniform error code."""
    return json.dumps(
        {"ok": False, "error": type(error).error_code, "message": str(error)}
    )


def decode_or_raise(envelope_json: str) -> Dict[str, Any]:
    """JS side: unwrap an envelope, re-raising coded errors as uniform
    :class:`~repro.errors.ProxyError` subclasses."""
    envelope = json.loads(envelope_json)
    if envelope.get("ok"):
        return envelope.get("payload", {})
    error_class = code_to_error_class(int(envelope.get("error", 1000)))
    raise error_class(envelope.get("message", "bridge call failed"))


# ---------------------------------------------------------------------------
# Java side
# ---------------------------------------------------------------------------

class WrapperBackend:
    """Java-side instance store shared by a wrapper-factory/wrapper pair.

    Holds real proxy instances (the platform's Java M-Proxy bindings) under
    integer handles and owns the notification table used for asynchronous
    results.
    """

    def __init__(self, notification_table: NotificationTable) -> None:
        self.notifications = notification_table
        self._instances: Dict[int, MProxy] = {}
        self._next_handle = 1

    def add_instance(self, proxy: MProxy) -> int:
        handle = self._next_handle
        self._next_handle += 1
        self._instances[handle] = proxy
        return handle

    def instance(self, handle: int) -> MProxy:
        try:
            return self._instances[handle]
        except KeyError:
            raise ProxyError(f"unknown wrapper instance handle {handle}") from None


class JavaWrapper:
    """Java side, step 2: the wrapper class behind the bridge.

    Every public method is a bridge entry point: primitive arguments in,
    JSON envelope strings out.  Each instance handle holds one
    ``ANDROID_BINDING`` proxy bound to the wrapper's Android context.
    """

    #: The Java M-Proxy binding each wrapper instance holds.
    ANDROID_BINDING: Type[MProxy]

    def __init__(self, platform: WebViewPlatform, context: Any) -> None:
        self._platform = platform
        self._context = context
        self._backend = WrapperBackend(platform.notification_table)

    def create_instance(self) -> int:
        binding = self.ANDROID_BINDING
        proxy = binding(
            standard_registry().descriptor(binding.interface), self._platform.android
        )
        proxy.set_property("context", self._context)
        return self._backend.add_instance(proxy)

    def set_property(self, handle: int, key: str, value_json: str) -> str:
        """Bridge entry: ``setProperty`` with a JSON-encoded value."""
        try:
            self._backend.instance(handle).set_property(key, json.loads(value_json))
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok()

    def get_notifications(self, notification_id: str) -> str:
        return self._backend.notifications.drain_json(notification_id)


class WrapperFactory:
    """Java side, step 1: mints wrapper instances for the JS domain.

    Subclasses add the figure's named bridge entry
    (``create_<interface>_wrapper_instance``) returning
    ``self._wrapper.create_instance()``.
    """

    def __init__(self, wrapper: JavaWrapper) -> None:
        self._wrapper = wrapper


# ---------------------------------------------------------------------------
# JS side
# ---------------------------------------------------------------------------

class JsProxy(MProxy):
    """Base of the JS-side proxies (listed before the uniform API class).

    Built by ``create_proxy(interface, webview_platform)`` once a page is
    loaded, or from page code with :meth:`in_page`.  Either way it mints
    its Java wrapper instance (the figure's ``swi`` handle) and attaches
    the device's observability hub, so in-page invocations trace too.
    Subclasses name their injected Java objects and the factory method.
    """

    #: JS globals the plugin injects the wrapper factory and wrapper under.
    FACTORY_JS_NAME = ""
    WRAPPER_JS_NAME = ""
    #: The wrapper factory's instance-minting bridge method.
    CREATE_INSTANCE = ""

    def __init__(self, descriptor: ProxyDescriptor, platform: WebViewPlatform) -> None:
        super().__init__(descriptor, "webview")
        window = platform.active_window
        if window is None:
            raise ProxyError(
                "no page is loaded; construct the JS proxy inside a page "
                "script (or load a page first)"
            )
        self._init_in_window(window)

    @classmethod
    def in_page(cls, window: JsWindow) -> "JsProxy":
        """Construct directly from page code, paper-style."""
        instance = cls.__new__(cls)
        super(JsProxy, instance).__init__(
            standard_registry().descriptor(cls.interface), "webview"
        )
        instance._init_in_window(window)
        return instance

    def _init_in_window(self, window: JsWindow) -> None:
        self._window = window
        # In-page construction bypasses the proxy factory, so pick up the
        # device hub here; otherwise in-page invocations leave no spans.
        if self.observability is None:
            obs = getattr(window.platform.device, "obs", None)
            if obs is not None:
                self.attach_observability(obs)
        factory = window.bridge_object(self.FACTORY_JS_NAME)
        self._wrapper = window.bridge_object(self.WRAPPER_JS_NAME)
        self._swi = getattr(factory, self.CREATE_INSTANCE)()
        #: Live notification handlers, keyed as each binding needs.
        self._handlers: Dict[Any, Any] = {}

    def set_property(self, key: str, value: Any) -> None:
        super().set_property(key, value)  # local validation first
        if key != "pollInterval":  # JS-side-only knob stays local
            decode_or_raise(
                self._wrapper.set_property(self._swi, key, json.dumps(value))
            )


class NotificationHandler:
    """The figure's ``notifHandler``: polls one notification id.

    ``dispatch`` receives each decoded notification dict
    (``{"kind": ..., "payload": {...}}``) in posting order.
    """

    def __init__(
        self,
        window: JsWindow,
        wrapper,
        notification_id: str,
        dispatch: Callable[[Dict[str, Any]], None],
        *,
        poll_interval_ms: float = DEFAULT_POLL_INTERVAL_MS,
    ) -> None:
        self._window = window
        self._wrapper = wrapper
        self._notification_id = notification_id
        self._dispatch = dispatch
        self._poll_interval_ms = poll_interval_ms
        self._timer_id: Optional[int] = None
        #: Polls whose bridge crossing was lost (fault plane); the next
        #: interval retries naturally, so a dropped poll only delays
        #: delivery rather than losing notifications.
        self.dropped_polls = 0

    @property
    def polling(self) -> bool:
        return self._timer_id is not None

    @property
    def notification_id(self) -> str:
        return self._notification_id

    def start_polling(self) -> None:
        """Begin the periodic drain (figure: ``nH.startPolling()``)."""
        if self._timer_id is not None:
            return
        self._timer_id = self._window.set_interval(
            self._poll_once, self._poll_interval_ms
        )

    def stop_polling(self) -> None:
        if self._timer_id is not None:
            self._window.clear_interval(self._timer_id)
            self._timer_id = None

    def _poll_once(self) -> None:
        try:
            batch_json = self._wrapper.get_notifications(self._notification_id)
        except JsBridgeError:
            # The polling crossing itself was lost.  Nothing was drained,
            # so the queued notifications survive for the next interval.
            self.dropped_polls += 1
            return
        if batch_json == "[]":  # most polls find nothing: skip the decoder
            return
        for notification in json.loads(batch_json):
            self._dispatch(notification)
