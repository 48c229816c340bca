"""The WebView (JavaScript) binding shape, written once for all six proxies.

The paper's Figure 6 pattern, and every name it needs, derived from the
interface name (``Sms`` below):

* a **Java wrapper** (a :class:`JavaWrapper` subclass, injected as the JS
  global ``SmsWrapper``) holding Android proxy instances keyed by
  integer handles (the ``swi`` handle in the figure) — bridge calls
  carry the handle because object references cannot cross;
* a **wrapper factory** (:class:`WrapperFactory`, injected as
  ``SmsWrapperFactory``) whose one bridge entry,
  ``create_sms_wrapper_instance``, mints those handles;
* JSON envelopes for results and errors (exceptions cannot cross the
  bridge either, so uniform errors travel as ``{"error": code}``):
  :func:`bridge_entry` makes a wrapper method's payload an ok envelope
  and its :class:`~repro.errors.ProxyError` an error envelope;
* Java-side callbacks that post into the Notification Table
  (:meth:`JavaWrapper._poster`), and a JS-side **notification handler**
  (the figure's ``notifHandler``) that polls the table and dispatches to
  local JS callbacks (:meth:`JsProxy._poll`);
* :class:`JsProxy`, the JS-side proxy base: construction (by the factory
  or in page code), wrapper-instance minting and ``setProperty``
  forwarding.

The M-Plugin's ``WebViewPlatformExtension`` installs any interface's
Java side from these names (:func:`js_globals`,
:func:`java_wrapper_class`) and ships its JS file (:func:`js_file`).
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.factory import load_bindings, standard_registry
from repro.core.proxy.base import MProxy
from repro.core.proxy.exceptions import code_to_error_class
from repro.errors import ConfigurationError, ProxyError
from repro.platforms.webview.exceptions import JsBridgeError
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import JsWindow

# ---------------------------------------------------------------------------
# Names, all derived from the interface name
# ---------------------------------------------------------------------------

def js_globals(interface: str) -> Tuple[str, str]:
    """The JS globals ``interface``'s wrapper factory and wrapper are
    injected under: ``("SmsWrapperFactory", "SmsWrapper")``."""
    return f"{interface}WrapperFactory", f"{interface}Wrapper"


def factory_entry(interface: str) -> str:
    """The wrapper factory's one bridge entry:
    ``create_sms_wrapper_instance`` (figure: ``createSmsWrapperInstance``)."""
    return f"create_{interface.lower()}_wrapper_instance"


def js_file(interface: str) -> str:
    """The JS proxy implementation file a WebView project ships."""
    return f"proxies/{interface.lower()}_proxy.js"


def java_wrapper_class(interface: str) -> Type["JavaWrapper"]:
    """The Java wrapper class of ``interface``'s WebView binding.

    Raises :class:`~repro.errors.ConfigurationError` for an interface
    with no WebView binding.
    """
    load_bindings()
    for wrapper_class in JavaWrapper.__subclasses__():
        if wrapper_class.ANDROID_BINDING.interface == interface:
            return wrapper_class
    raise ConfigurationError(f"no WebView binding for {interface!r}")


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


def bridge_entry(method: Callable[..., Optional[Dict[str, Any]]]) -> Callable[..., str]:
    """Make a Java wrapper method a bridge entry returning an envelope.

    The payload the method returns (``None`` for none) crosses as an ok
    envelope, a :class:`~repro.errors.ProxyError` it raises as an error
    envelope.  Any other exception escapes to the bridge, which hands it
    to JS as an untyped :class:`JsBridgeError`.
    """

    @functools.wraps(method)
    def entry(self: "JavaWrapper", *args: Any) -> str:
        try:
            payload = method(self, *args)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok(payload)

    return entry


# ---------------------------------------------------------------------------
# Java side
# ---------------------------------------------------------------------------

class JavaWrapper:
    """Java side, step 2: the wrapper class behind the bridge.

    Every public method is a bridge entry point: primitive arguments in,
    strings out.  Each instance handle holds one ``ANDROID_BINDING`` proxy
    bound to the wrapper's Android context; asynchronous results go into
    the platform's notification table.
    """

    #: The Java M-Proxy binding each wrapper instance holds.
    ANDROID_BINDING: Type[MProxy]

    def __init__(self, platform: WebViewPlatform, context: Any) -> None:
        self._platform = platform
        self._context = context
        self._notifications = platform.notification_table
        self._instances: Dict[int, MProxy] = {}

    def create_instance(self) -> int:
        binding = self.ANDROID_BINDING
        proxy = binding(
            standard_registry().descriptor(binding.interface), self._platform.android
        )
        proxy.set_property("context", self._context)
        handle = len(self._instances) + 1
        self._instances[handle] = proxy
        return handle

    @bridge_entry
    def set_property(self, handle: int, key: str, value_json: str) -> None:
        """Bridge entry: ``setProperty`` with a JSON-encoded value."""
        self._instance(handle).set_property(key, json.loads(value_json))

    def get_notifications(self, notification_id: str) -> str:
        return self._notifications.drain_json(notification_id)

    def _instance(self, handle: int) -> MProxy:
        try:
            return self._instances[handle]
        except KeyError:
            raise ProxyError(f"unknown wrapper instance handle {handle}") from None

    def _poster(self, kind: str) -> Tuple[str, Callable[[Dict[str, Any]], None]]:
        """The figure's Java 'Callback object': a fresh notification id
        and a function posting one ``kind`` result under it."""
        table = self._notifications
        platform = self._platform
        notification_id = table.new_id()

        def post(payload: Dict[str, Any]) -> None:
            table.post(notification_id, kind, payload, now_ms=platform.clock.now_ms)

        return notification_id, post


class WrapperFactory:
    """Java side, step 1: mints wrapper instances for the JS domain.

    Its one bridge entry, :func:`factory_entry` of the wrapper's
    interface, returns a new instance handle (the figure's ``swi``).
    """

    def __init__(self, wrapper: JavaWrapper) -> None:
        setattr(
            self,
            factory_entry(wrapper.ANDROID_BINDING.interface),
            wrapper.create_instance,
        )


# ---------------------------------------------------------------------------
# JS side
# ---------------------------------------------------------------------------

class JsProxy(MProxy):
    """Base of the JS-side proxies (listed before the uniform API class).

    Built by ``create_proxy(interface, webview_platform)`` once a page is
    loaded, or from page code with :meth:`in_page`.  Either way it mints
    its Java wrapper instance (the figure's ``swi`` handle) through the
    injected globals of its interface and attaches the device's
    observability hub, so in-page invocations trace too.
    """

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
        factory_name, wrapper_name = js_globals(self.interface)
        factory = window.bridge_object(factory_name)
        self._wrapper = window.bridge_object(wrapper_name)
        self._swi = getattr(factory, factory_entry(self.interface))()
        #: Live notification handlers, keyed as each binding needs.
        self._handlers: Dict[Any, Any] = {}

    def set_property(self, key: str, value: Any) -> None:
        super().set_property(key, value)  # local validation first
        if key != "pollInterval":  # JS-side-only knob stays local
            decode_or_raise(
                self._wrapper.set_property(self._swi, key, json.dumps(value))
            )

    def _poll(
        self,
        notification_id: str,
        dispatch: Callable[[Dict[str, Any]], None],
        interval_ms: Optional[float] = None,
    ) -> "NotificationHandler":
        """Start polling ``notification_id`` (figure: ``nH.startPolling()``)
        every ``interval_ms``, by default the ``pollInterval`` property."""
        if interval_ms is None:
            interval_ms = float(self.get_property("pollInterval"))
        handler = NotificationHandler(
            self._window,
            self._wrapper,
            notification_id,
            dispatch,
            poll_interval_ms=interval_ms,
        )
        handler.start_polling()
        return handler


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
        poll_interval_ms: float,
    ) -> None:
        self._window = window
        self._wrapper = wrapper
        self._notification_id = notification_id
        self._dispatch = dispatch
        self._poll_interval_ms = poll_interval_ms
        self._timer_id: Optional[int] = None

    def start_polling(self) -> None:
        """Begin the periodic drain (figure: ``nH.startPolling()``)."""
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
            # The polling crossing itself was lost (fault plane).  Nothing
            # was drained, so the queued notifications survive for the
            # next interval: a dropped poll only delays delivery.
            return
        if batch_json == "[]":  # most polls find nothing: skip the decoder
            return
        for notification in json.loads(batch_json):
            self._dispatch(notification)
