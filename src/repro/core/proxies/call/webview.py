"""WebView binding of the Call proxy (Notification-Table pattern)."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.proxies.call.android import AndroidCallProxyImpl
from repro.core.proxies.call.api import CallProxy, UniformCallCallback, as_call_listener
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.webview_common import (
    JavaWrapper,
    JsProxy,
    bridge_entry,
    decode_or_raise,
)
from repro.core.proxy.datatypes import CallHandle, CallOutcome
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform


class CallWrapperJava(JavaWrapper):
    """Java side, step 2: the ``CallWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidCallProxyImpl

    def __init__(self, platform: WebViewPlatform, context: Context) -> None:
        super().__init__(platform, context)
        #: call id → the Java-side uniform handle (JS only gets primitives).
        self._handles: Dict[str, CallHandle] = {}

    @bridge_entry
    def make_a_call(self, handle: int, number: str) -> Dict[str, str]:
        proxy = self._instance(handle)
        notification_id, post = self._poster("callState")
        call_handle = proxy.make_a_call(
            number,
            lambda event, call_id, outcome: post(
                {"event": event, "callId": call_id, "outcome": outcome}
            ),
        )
        self._handles[call_handle.call_id] = call_handle
        return {"callId": call_handle.call_id, "notificationId": notification_id}

    @bridge_entry
    def end_call(self, handle: int, call_id: str) -> None:
        java_handle = self._handles.get(call_id)
        if java_handle is not None:
            self._instance(handle).end_call(java_handle)


class CallProxyJs(JsProxy, CallProxy):
    """JS side: ``com.ibm.proxies.webview.call.CallProxyJs``."""

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

            self._handlers[call_id] = self._poll(notification_id, dispatch)
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
