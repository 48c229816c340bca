"""Shared plumbing for the S60 proxy bindings.

Every S60 binding runs against one :class:`S60Platform`; its criteria
and connection knobs arrive as binding-plane properties, so the base
needs nothing beyond the platform handle.
"""

from __future__ import annotations

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxy.base import MProxy
from repro.platforms.s60.platform import S60Platform


class S60Binding(MProxy):
    """Base of the S60 bindings (listed before the uniform API class)."""

    def __init__(self, descriptor: ProxyDescriptor, platform: S60Platform) -> None:
        super().__init__(descriptor, "s60")
        self._platform = platform
