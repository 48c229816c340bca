"""WebView binding of the SMS proxy — the literal subject of Figure 6.

``SmsWrapperFactory.create_sms_wrapper_instance()`` → handle (``swi``);
``SmsWrapper.send_text_message(swi, ...)`` → notification id; a Java-side
callback posts sent/delivered/failed results into the Notification
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
    bridge_entry,
    decode_or_raise,
)


class SmsWrapperJava(JavaWrapper):
    """Java side, step 2: the ``SmsWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidSmsProxyImpl

    @bridge_entry
    def send_text_message(self, handle: int, destination: str, text: str) -> Dict[str, str]:
        proxy = self._instance(handle)
        notification_id, post = self._poster("smsStatus")
        message_id = proxy.send_text_message(
            destination,
            text,
            lambda event, message_id, reason: post(
                {"event": event, "messageId": message_id, "reason": reason}
            ),
        )
        return {"messageId": message_id, "notificationId": notification_id}


class SmsProxyJs(JsProxy, SmsProxy):
    """JS side: ``com.ibm.proxies.webview.sms.SmsProxyJs``."""

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

            self._handlers[message_id] = self._poll(notification_id, dispatch)
        return message_id

    def stop_tracking(self, message_id: str) -> None:
        """Stop polling for a message's status (JS-side convenience)."""
        handler = self._handlers.pop(message_id, None)
        if handler is not None:
            handler.stop_polling()


register_implementation("com.ibm.proxies.webview.sms.SmsProxyJs", SmsProxyJs)
