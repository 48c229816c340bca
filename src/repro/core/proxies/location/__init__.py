"""The Location M-Proxy: proximity alerts and position reads.

The paper's flagship example.  The uniform API (``api.LocationProxy``)
matches Figure 8: ``add_proximity_alert(latitude, longitude, altitude,
radius, timer, listener)`` behaves identically on Android, S60 and
WebView, with platform attributes flowing through ``set_property``.

The listings in Section 3.1 of the paper are fragments of
``descriptors/location.xml``.  Its C syntactic plane shows that callback
style is a per-language concern ("in C we can specify a function
pointer"); no shipped platform binds it, a native OS vendor would.
"""

from repro.core.proxies.location.api import LocationProxy

__all__ = ["LocationProxy"]
