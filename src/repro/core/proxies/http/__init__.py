"""The HTTP M-Proxy: uniform request/response over three native stacks."""

from repro.core.proxies.http.api import HttpProxy

__all__ = ["HttpProxy"]
