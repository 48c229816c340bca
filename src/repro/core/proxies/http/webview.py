"""WebView binding of the HTTP proxy.

Synchronous results are plain data and cross the bridge directly as JSON
envelopes.  The asynchronous ``getAsync`` path rides the Notification
Table like every other WebView callback — a JS function cannot cross the
bridge, so the Java side posts the response and the JS ``notifHandler``
polls it back.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.proxies.factory import register_implementation
from repro.core.proxies.http.android import AndroidHttpProxyImpl
from repro.core.proxies.http.api import (
    HttpProxy,
    UniformHttpCallback,
    as_response_listener,
    degraded_response,
)
from repro.core.proxies.webview_common import (
    JavaWrapper,
    JsProxy,
    bridge_entry,
    decode_or_raise,
)
from repro.core.proxy.datatypes import HttpResult


def _result_payload(result: HttpResult) -> Dict:
    return {"status": result.status, "body": result.body}


class HttpWrapperJava(JavaWrapper):
    """Java side, step 2: the ``HttpWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidHttpProxyImpl

    @bridge_entry
    def get(self, handle: int, url: str) -> Dict:
        return _result_payload(self._instance(handle).get(url))

    @bridge_entry
    def post(self, handle: int, url: str, body: str) -> Dict:
        return _result_payload(self._instance(handle).post(url, body))

    @bridge_entry
    def get_async(self, handle: int, url: str) -> Dict[str, str]:
        """Start an async fetch; results arrive via the notification table."""
        notification_id, post = self._poster("httpResponse")

        def respond(result: Optional[HttpResult], reason: Optional[str]) -> None:
            post({"error": reason} if result is None else _result_payload(result))

        self._instance(handle).get_async(url, respond)
        return {"notificationId": notification_id}


class HttpProxyJs(JsProxy, HttpProxy):
    """JS side: ``com.ibm.proxies.webview.http.HttpProxyJs``."""

    def get(self, url: str) -> HttpResult:
        def attempt() -> HttpResult:
            self._trace_event("binding.bridge_call", method="get", url=url)
            payload = decode_or_raise(self._wrapper.get(self._swi, url))
            return HttpResult(status=payload["status"], body=payload["body"])

        return self._call("get", attempt, fallback=degraded_response, url=url)

    def post(self, url: str, body: str) -> HttpResult:
        def attempt() -> HttpResult:
            self._trace_event("binding.bridge_call", method="post", url=url)
            payload = decode_or_raise(self._wrapper.post(self._swi, url, body))
            return HttpResult(status=payload["status"], body=payload["body"])

        return self._call(
            "post", attempt, fallback=degraded_response, url=url, body=body
        )

    #: JS polling period for async responses (no binding property; XHR-ish).
    ASYNC_POLL_INTERVAL_MS = 250.0

    def get_async(self, url: str, response_listener: UniformHttpCallback) -> None:
        listener = as_response_listener(response_listener)
        payload = self._call(
            "getAsync",
            lambda: decode_or_raise(self._wrapper.get_async(self._swi, url)),
            url=url,
        )

        def dispatch(notification: Dict) -> None:
            body = notification["payload"]
            if "error" in body:
                listener.on_error(body["error"])
            else:
                listener.on_response(
                    HttpResult(status=body["status"], body=body["body"])
                )
            handler.stop_polling()  # one-shot

        handler = self._poll(
            payload["notificationId"], dispatch, self.ASYNC_POLL_INTERVAL_MS
        )


register_implementation("com.ibm.proxies.webview.http.HttpProxyJs", HttpProxyJs)
