"""S60 binding of the HTTP proxy (GCF streams underneath)."""

from __future__ import annotations

from urllib.parse import urlparse

from repro.core.proxies.factory import register_implementation
from repro.core.proxies.http.api import (
    HttpProxy,
    UniformHttpCallback,
    as_response_listener,
    degraded_response,
)
from repro.core.proxies.s60_common import S60Binding
from repro.core.proxy.datatypes import HttpResult
from repro.device.network import HttpRequest
from repro.errors import ProxyInvalidArgumentError
from repro.platforms.s60.connector import HttpConnection, PERMISSION_HTTP
from repro.platforms.s60.exceptions import SecurityException


class S60HttpProxyImpl(S60Binding, HttpProxy):
    """``com.ibm.S60.http.HttpProxy``."""

    def get(self, url: str) -> HttpResult:
        def attempt() -> HttpResult:
            connection = self._platform.connector.open(url)
            try:
                connection.set_request_method(HttpConnection.GET)
                connection.set_request_property(
                    "User-Agent", self.get_property("userAgent")
                )
                self._trace_event("binding.http_request", method="GET", url=url)
                status = connection.get_response_code()
                body = connection.open_input_stream().read_fully()
            finally:
                connection.close()
            return HttpResult(status=status, body=body)

        return self._call("get", attempt, fallback=degraded_response, url=url)

    def post(self, url: str, body: str) -> HttpResult:
        def attempt() -> HttpResult:
            connection = self._platform.connector.open(url)
            try:
                connection.set_request_method(HttpConnection.POST)
                connection.set_request_property(
                    "User-Agent", self.get_property("userAgent")
                )
                connection.set_request_property(
                    "Content-Type", self.get_property("contentType")
                )
                connection.write_body(body)
                self._trace_event("binding.http_request", method="POST", url=url)
                status = connection.get_response_code()
                response_body = connection.open_input_stream().read_fully()
            finally:
                connection.close()
            return HttpResult(status=status, body=response_body)

        return self._call(
            "post", attempt, fallback=degraded_response, url=url, body=body
        )

    def get_async(self, url: str, response_listener: UniformHttpCallback) -> None:
        """Non-blocking fetch: models the worker thread a MIDlet spawns
        around the blocking GCF connection."""
        listener = as_response_listener(response_listener)

        def attempt() -> None:
            parsed = urlparse(url)
            if parsed.scheme != "http" or not parsed.netloc:
                raise ProxyInvalidArgumentError(f"malformed http url {url!r}")
            suite = self._platform.connector._suite_name
            if suite is not None and not self._platform.suite_has_permission(
                suite, PERMISSION_HTTP
            ):
                raise SecurityException(f"suite {suite!r} lacks {PERMISSION_HTTP}")
            self._platform.charge_native("s60.http")
            path = parsed.path or "/"
            if parsed.query:
                path = f"{path}?{parsed.query}"
            self._platform.device.network.request_async(
                HttpRequest(
                    method="GET",
                    host=parsed.netloc,
                    path=path,
                    headers=(("User-Agent", self.get_property("userAgent")),),
                ),
                on_response=lambda raw: listener.on_response(
                    HttpResult(status=raw.status, body=raw.body, headers=raw.headers)
                ),
                on_error=lambda exc: listener.on_error(str(exc)),
            )

        self._call("getAsync", attempt, url=url)


register_implementation("com.ibm.S60.http.HttpProxy", S60HttpProxyImpl)
