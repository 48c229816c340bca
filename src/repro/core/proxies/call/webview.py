"""WebView binding of the Call proxy (Notification-Table pattern)."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.proxies.call.android import AndroidCallProxyImpl
from repro.core.proxies.call.api import CallProxy, UniformCallCallback, as_call_listener
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.webview_common import (
    JavaWrapper,
    JsProxy,
    NotificationHandler,
    WrapperBackend,
    WrapperFactory,
    decode_or_raise,
    encode_error,
    encode_ok,
)
from repro.core.proxy.callbacks import CallStateListener
from repro.core.proxy.datatypes import CallHandle, CallOutcome
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import WebView

FACTORY_JS_NAME = "CallWrapperFactory"
WRAPPER_JS_NAME = "CallWrapper"


class _TablePostingCallListener(CallStateListener):
    """Java-side callback object posting call states to the table."""

    def __init__(
        self, backend: WrapperBackend, notification_id: str, platform: WebViewPlatform
    ) -> None:
        self._backend = backend
        self._notification_id = notification_id
        self._platform = platform

    def _post(self, event: str, call: CallHandle) -> None:
        self._backend.notifications.post(
            self._notification_id,
            "callState",
            {
                "event": event,
                "callId": call.call_id,
                "outcome": call.outcome.value if call.outcome is not None else None,
            },
            now_ms=self._platform.clock.now_ms,
        )

    def on_ringing(self, call: CallHandle) -> None:
        self._post("ringing", call)

    def on_answered(self, call: CallHandle) -> None:
        self._post("answered", call)

    def on_finished(self, call: CallHandle) -> None:
        self._post("finished", call)


class CallWrapperFactory(WrapperFactory):
    """Java side, step 1."""

    def create_call_wrapper_instance(self) -> int:
        return self._wrapper.create_instance()


class CallWrapperJava(JavaWrapper):
    """Java side, step 2: the ``CallWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidCallProxyImpl

    def __init__(self, platform: WebViewPlatform, context: Context) -> None:
        super().__init__(platform, context)
        #: call id → the Java-side uniform handle (JS only gets primitives).
        self._handles: Dict[str, CallHandle] = {}

    def make_a_call(self, handle: int, number: str) -> str:
        try:
            proxy = self._backend.instance(handle)
            notification_id = self._backend.notifications.new_id()
            listener = _TablePostingCallListener(
                self._backend, notification_id, self._platform
            )
            call_handle = proxy.make_a_call(number, listener)
        except ProxyError as exc:
            return encode_error(exc)
        self._handles[call_handle.call_id] = call_handle
        return encode_ok(
            {"callId": call_handle.call_id, "notificationId": notification_id}
        )

    def end_call(self, handle: int, call_id: str) -> str:
        java_handle = self._handles.get(call_id)
        if java_handle is None:
            return encode_ok()
        try:
            self._backend.instance(handle).end_call(java_handle)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok()


def install_call_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> CallWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = CallWrapperJava(platform, context)
    webview.add_javascript_interface(CallWrapperFactory(wrapper), FACTORY_JS_NAME)
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


class CallProxyJs(JsProxy, CallProxy):
    """JS side: ``com.ibm.proxies.webview.call.CallProxyJs``."""

    FACTORY_JS_NAME = FACTORY_JS_NAME
    WRAPPER_JS_NAME = WRAPPER_JS_NAME
    CREATE_INSTANCE = "create_call_wrapper_instance"

    def make_a_call(
        self,
        number: str,
        call_listener: Optional[UniformCallCallback] = None,
    ) -> CallHandle:
        def attempt() -> Dict:
            self._trace_event("binding.bridge_call", method="makeACall")
            return decode_or_raise(self._wrapper.make_a_call(self._swi, number))

        payload = self._call("makeACall", attempt, number=number)
        call_id = payload["callId"]
        notification_id = payload["notificationId"]
        # The JS domain keeps its own mirror handle; the Java one stays put.
        handle = CallHandle(call_id=call_id, number=number)
        listener = as_call_listener(call_listener)
        if listener is not None:
            def dispatch(notification: Dict) -> None:
                body = notification["payload"]
                event = body["event"]
                if event == "ringing":
                    listener.on_ringing(handle)
                elif event == "answered":
                    handle.answered = True
                    listener.on_answered(handle)
                else:
                    outcome = body.get("outcome")
                    handle.outcome = (
                        CallOutcome(outcome) if outcome else CallOutcome.FAILED
                    )
                    listener.on_finished(handle)
                    self._stop_tracking(call_id)

            handler = NotificationHandler(
                self._window,
                self._wrapper,
                notification_id,
                dispatch,
                poll_interval_ms=float(self.get_property("pollInterval")),
            )
            handler.start_polling()
            self._handlers[call_id] = handler
        return handle

    def end_call(self, call_handle: CallHandle) -> None:
        self._call(
            "endCall",
            lambda: decode_or_raise(
                self._wrapper.end_call(self._swi, call_handle.call_id)
            ),
        )

    def _stop_tracking(self, call_id: str) -> None:
        handler = self._handlers.pop(call_id, None)
        if handler is not None:
            handler.stop_polling()


register_implementation("com.ibm.proxies.webview.call.CallProxyJs", CallProxyJs)
