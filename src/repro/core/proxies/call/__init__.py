"""The Call M-Proxy: uniform voice-call placement.

No S60 binding exists — the paper reports the same gap: "Call proxy could
not be created in this case because the core functionality was not exposed
on the S60 platform."  ``create_proxy("Call", s60_platform)`` therefore
raises :class:`~repro.errors.ProxyUnavailableError`.
"""

from repro.core.proxies.call.api import CallProxy

__all__ = ["CallProxy"]
