"""The Contacts M-Proxy — the paper's future-work interface, implemented.

"In the future, we would like to extend MobiVine implementation to cover
other platform interfaces like those related to calendaring and contact
list information."  Same three-plane treatment as the original four:
Android's ContentResolver rows, S60's JSR-75 typed items and the WebView
bridge all flatten onto one uniform API.
"""

from repro.core.proxies.contacts.api import ContactsProxy

__all__ = ["ContactsProxy"]
