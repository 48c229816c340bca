"""Concrete M-Proxies: Location, SMS, Call, HTTP, Contacts, Calendar.

Each proxy's three-plane descriptor is an XML document in
``descriptors/`` (``location.xml``, ``sms.xml``, ...), the only copy of
it; :func:`standard_registry` loads and schema-validates them.  Each
proxy subpackage ships:

* ``api`` — the uniform interface applications program against;
* one binding module per platform (``android``, ``s60``, ``webview``),
  registered in the implementation-class table under the Java-style
  name its descriptor's ``<class>`` element gives, so the factory can
  instantiate it from the binding plane's ``implementation_class``.

``create_proxy`` is the application-facing entry point:

    >>> proxy = create_proxy("Location", android_platform)   # doctest: +SKIP
    >>> proxy.set_property("context", activity)              # doctest: +SKIP
"""

from repro.core.proxies.factory import (
    create_proxy,
    implementation_class,
    register_implementation,
    standard_registry,
)

__all__ = [
    "create_proxy",
    "implementation_class",
    "register_implementation",
    "standard_registry",
]
