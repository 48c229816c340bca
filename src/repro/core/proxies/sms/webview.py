"""WebView binding of the SMS proxy — the literal subject of Figure 6.

``SmsWrapperFactory.create_sms_wrapper_instance()`` → handle (``swi``);
``SmsWrapper.send_text_message(swi, ...)`` → notification id; a Java-side
callback object posts sent/delivered/failed results into the Notification
Table; the JS proxy's ``notifHandler`` polls and dispatches to the local
JS callback function.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.proxies.factory import register_implementation
from repro.core.proxies.sms.android import AndroidSmsProxyImpl
from repro.core.proxies.sms.api import SmsProxy, UniformSmsCallback, as_status_listener
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
from repro.core.proxy.callbacks import SmsStatusListener
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import WebView

FACTORY_JS_NAME = "SmsWrapperFactory"
WRAPPER_JS_NAME = "SmsWrapper"


class _TablePostingStatusListener(SmsStatusListener):
    """The figure's Java 'Callback object' for SMS results."""

    def __init__(
        self, backend: WrapperBackend, notification_id: str, platform: WebViewPlatform
    ) -> None:
        self._backend = backend
        self._notification_id = notification_id
        self._platform = platform

    def _post(self, event: str, message_id: str, reason: Optional[str]) -> None:
        self._backend.notifications.post(
            self._notification_id,
            "smsStatus",
            {"event": event, "messageId": message_id, "reason": reason},
            now_ms=self._platform.clock.now_ms,
        )

    def on_sent(self, message_id: str) -> None:
        self._post("sent", message_id, None)

    def on_delivered(self, message_id: str) -> None:
        self._post("delivered", message_id, None)

    def on_failed(self, message_id: str, reason: str) -> None:
        self._post("failed", message_id, reason)


class SmsWrapperFactory(WrapperFactory):
    """Java side, step 1 (figure: ``createSmsWrapperInstance``)."""

    def create_sms_wrapper_instance(self) -> int:
        return self._wrapper.create_instance()


class SmsWrapperJava(JavaWrapper):
    """Java side, step 2: the ``SmsWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidSmsProxyImpl

    def send_text_message(self, handle: int, destination: str, text: str) -> str:
        try:
            proxy = self._backend.instance(handle)
            notification_id = self._backend.notifications.new_id()
            listener = _TablePostingStatusListener(
                self._backend, notification_id, self._platform
            )
            message_id = proxy.send_text_message(destination, text, listener)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok(
            {"messageId": message_id, "notificationId": notification_id}
        )


def install_sms_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> SmsWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = SmsWrapperJava(platform, context)
    webview.add_javascript_interface(SmsWrapperFactory(wrapper), FACTORY_JS_NAME)
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


class SmsProxyJs(JsProxy, SmsProxy):
    """JS side: ``com.ibm.proxies.webview.sms.SmsProxyJs``."""

    FACTORY_JS_NAME = FACTORY_JS_NAME
    WRAPPER_JS_NAME = WRAPPER_JS_NAME
    CREATE_INSTANCE = "create_sms_wrapper_instance"

    def send_text_message(
        self,
        destination: str,
        text: str,
        status_listener: Optional[UniformSmsCallback] = None,
    ) -> str:
        def attempt() -> Dict:
            return decode_or_raise(
                self._wrapper.send_text_message(self._swi, destination, text)
            )

        queue = getattr(self, "redelivery_queue", None)
        fallback = queue.fallback_for(destination, text) if queue else None
        payload = self._call(
            "sendTextMessage",
            attempt,
            fallback=fallback,
            destination=destination,
            text=text,
        )
        if not isinstance(payload, dict):
            return payload  # degraded: the redelivery queue entry's id
        message_id = payload["messageId"]
        notification_id = payload["notificationId"]
        listener = as_status_listener(status_listener)
        if listener is not None:
            def dispatch(notification: Dict) -> None:
                body = notification["payload"]
                event = body["event"]
                if event == "sent":
                    listener.on_sent(body["messageId"])
                elif event == "delivered":
                    listener.on_delivered(body["messageId"])
                else:
                    listener.on_failed(body["messageId"], body.get("reason") or "")

            handler = NotificationHandler(
                self._window,
                self._wrapper,
                notification_id,
                dispatch,
                poll_interval_ms=float(self.get_property("pollInterval")),
            )
            handler.start_polling()
            self._handlers[message_id] = handler
        return message_id

    def stop_tracking(self, message_id: str) -> None:
        """Stop polling for a message's status (JS-side convenience)."""
        handler = self._handlers.pop(message_id, None)
        if handler is not None:
            handler.stop_polling()


register_implementation("com.ibm.proxies.webview.sms.SmsProxyJs", SmsProxyJs)
