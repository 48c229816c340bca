"""Android binding of the HTTP proxy (Apache-client style underneath)."""

from __future__ import annotations

from repro.core.proxies.android_common import AndroidBinding
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.http.api import (
    HttpProxy,
    UniformHttpCallback,
    as_response_listener,
    degraded_response,
)
from repro.core.proxy.datatypes import HttpResult
from repro.device.network import HttpRequest
from repro.platforms.android.http import INTERNET, HttpGet, HttpPost


class AndroidHttpProxyImpl(AndroidBinding, HttpProxy):
    """``com.ibm.proxies.android.http.HttpProxyImpl``."""

    def get(self, url: str) -> HttpResult:
        def attempt() -> HttpResult:
            client = self._platform.http_client(self._context("get"))
            request = HttpGet(url)
            request.add_header("User-Agent", self.get_property("userAgent"))
            self._trace_event("binding.http_request", method="GET", url=url)
            response = client.execute(request)
            return HttpResult(
                status=response.get_status_line().get_status_code(),
                body=response.get_entity().get_content(),
                headers=response.get_all_headers(),
            )

        return self._call("get", attempt, fallback=degraded_response, url=url)

    def post(self, url: str, body: str) -> HttpResult:
        def attempt() -> HttpResult:
            client = self._platform.http_client(self._context("post"))
            request = HttpPost(url)
            request.add_header("User-Agent", self.get_property("userAgent"))
            request.add_header("Content-Type", self.get_property("contentType"))
            request.set_entity(body)
            self._trace_event("binding.http_request", method="POST", url=url)
            response = client.execute(request)
            return HttpResult(
                status=response.get_status_line().get_status_code(),
                body=response.get_entity().get_content(),
                headers=response.get_all_headers(),
            )

        return self._call(
            "post", attempt, fallback=degraded_response, url=url, body=body
        )

    def get_async(self, url: str, response_listener: UniformHttpCallback) -> None:
        """Non-blocking fetch: the worker-thread idiom the blocking Apache
        client forces, modelled on the simulated network's async path."""
        listener = as_response_listener(response_listener)

        def attempt() -> None:
            context = self._context("getAsync")
            context.enforce_permission(INTERNET, "getAsync")
            request = HttpGet(url)  # validates the URL eagerly
            request.add_header("User-Agent", self.get_property("userAgent"))
            self._platform.charge_native("android.http")
            self._platform.device.network.request_async(
                HttpRequest(
                    method=request.method,
                    host=request.host,
                    path=request.path,
                    headers=request.headers(),
                ),
                on_response=lambda raw: listener.on_response(
                    HttpResult(status=raw.status, body=raw.body, headers=raw.headers)
                ),
                on_error=lambda exc: listener.on_error(str(exc)),
            )

        self._call("getAsync", attempt, url=url)


register_implementation(
    "com.ibm.proxies.android.http.HttpProxyImpl", AndroidHttpProxyImpl
)
