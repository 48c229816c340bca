"""Shared plumbing for the Android proxy bindings.

Every Android binding runs against one :class:`AndroidPlatform` and needs
the application ``Context`` the paper's Section 4.1 says the proxy must
absorb: applications hand it over once through ``setProperty``.
"""

from __future__ import annotations

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxy.base import MProxy
from repro.errors import ProxyPropertyError
from repro.platforms.android.context import Context
from repro.platforms.android.platform import AndroidPlatform


class AndroidBinding(MProxy):
    """Base of the Android bindings (listed before the uniform API class)."""

    def __init__(self, descriptor: ProxyDescriptor, platform: AndroidPlatform) -> None:
        super().__init__(descriptor, "android")
        self._platform = platform

    def _context(self, for_what: str) -> Context:
        """The ``context`` property ``for_what`` needs: it must be set, and
        be an Android :class:`~repro.platforms.android.context.Context`
        (either failure is a :class:`~repro.errors.ProxyPropertyError`)."""
        context = self.properties.require("context", for_what)
        if not isinstance(context, Context):
            raise ProxyPropertyError(
                f"property 'context' must be an Android Context, got "
                f"{type(context).__name__}"
            )
        return context
