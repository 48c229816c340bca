"""WebView binding of the HTTP proxy.

Synchronous results are plain data and cross the bridge directly as JSON
envelopes.  The asynchronous ``getAsync`` path rides the Notification
Table like every other WebView callback — a JS function cannot cross the
bridge, so the Java side posts the response and the JS ``notifHandler``
polls it back.
"""

from __future__ import annotations

from typing import Dict

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
    NotificationHandler,
    WrapperFactory,
    decode_or_raise,
    encode_error,
    encode_ok,
)
from repro.core.proxy.callbacks import HttpResponseListener
from repro.core.proxy.datatypes import HttpResult
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import WebView

FACTORY_JS_NAME = "HttpWrapperFactory"
WRAPPER_JS_NAME = "HttpWrapper"


class HttpWrapperFactory(WrapperFactory):
    """Java side, step 1."""

    def create_http_wrapper_instance(self) -> int:
        return self._wrapper.create_instance()


class HttpWrapperJava(JavaWrapper):
    """Java side, step 2: the ``HttpWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidHttpProxyImpl

    def get(self, handle: int, url: str) -> str:
        try:
            result = self._backend.instance(handle).get(url)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"status": result.status, "body": result.body})

    def post(self, handle: int, url: str, body: str) -> str:
        try:
            result = self._backend.instance(handle).post(url, body)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"status": result.status, "body": result.body})

    def get_async(self, handle: int, url: str) -> str:
        """Start an async fetch; results arrive via the notification table."""
        backend = self._backend
        platform = self._platform
        notification_id = backend.notifications.new_id()

        class _TablePostingHttpListener(HttpResponseListener):
            def on_response(self, result: HttpResult) -> None:
                backend.notifications.post(
                    notification_id,
                    "httpResponse",
                    {"status": result.status, "body": result.body},
                    now_ms=platform.clock.now_ms,
                )

            def on_error(self, reason: str) -> None:
                backend.notifications.post(
                    notification_id,
                    "httpResponse",
                    {"error": reason},
                    now_ms=platform.clock.now_ms,
                )

        try:
            backend.instance(handle).get_async(url, _TablePostingHttpListener())
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"notificationId": notification_id})


def install_http_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> HttpWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = HttpWrapperJava(platform, context)
    webview.add_javascript_interface(HttpWrapperFactory(wrapper), FACTORY_JS_NAME)
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


class HttpProxyJs(JsProxy, HttpProxy):
    """JS side: ``com.ibm.proxies.webview.http.HttpProxyJs``."""

    FACTORY_JS_NAME = FACTORY_JS_NAME
    WRAPPER_JS_NAME = WRAPPER_JS_NAME
    CREATE_INSTANCE = "create_http_wrapper_instance"

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
        notification_id = payload["notificationId"]
        holder: Dict[str, NotificationHandler] = {}

        def dispatch(notification: Dict) -> None:
            body = notification["payload"]
            if "error" in body:
                listener.on_error(body["error"])
            else:
                listener.on_response(
                    HttpResult(status=body["status"], body=body["body"])
                )
            holder["handler"].stop_polling()  # one-shot

        handler = NotificationHandler(
            self._window,
            self._wrapper,
            notification_id,
            dispatch,
            poll_interval_ms=self.ASYNC_POLL_INTERVAL_MS,
        )
        holder["handler"] = handler
        handler.start_polling()


register_implementation("com.ibm.proxies.webview.http.HttpProxyJs", HttpProxyJs)
