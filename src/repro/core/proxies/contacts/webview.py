"""WebView binding of the Contacts proxy.

Contact data is plain values, so the bridge calls are synchronous: lists
cross as JSON arrays inside the usual envelopes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.proxies.contacts.android import AndroidContactsProxyImpl
from repro.core.proxies.contacts.api import ContactsProxy
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.webview_common import (
    JavaWrapper,
    JsProxy,
    WrapperFactory,
    decode_or_raise,
    encode_error,
    encode_ok,
)
from repro.core.proxy.datatypes import Contact
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import WebView

FACTORY_JS_NAME = "ContactsWrapperFactory"
WRAPPER_JS_NAME = "ContactsWrapper"


def _contact_payload(contact: Contact) -> Dict:
    return {
        "contactId": contact.contact_id,
        "name": contact.name,
        "phoneNumbers": list(contact.phone_numbers),
        "email": contact.email,
    }


def _contact_from_payload(payload: Dict) -> Contact:
    return Contact(
        contact_id=payload["contactId"],
        name=payload["name"],
        phone_numbers=tuple(payload.get("phoneNumbers", ())),
        email=payload.get("email", ""),
    )


class ContactsWrapperFactory(WrapperFactory):
    """Java side, step 1."""

    def create_contacts_wrapper_instance(self) -> int:
        return self._wrapper.create_instance()


class ContactsWrapperJava(JavaWrapper):
    """Java side, step 2: the ``ContactsWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidContactsProxyImpl

    def list_contacts(self, handle: int) -> str:
        try:
            contacts = self._backend.instance(handle).list_contacts()
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"contacts": [_contact_payload(c) for c in contacts]})

    def find_by_name(self, handle: int, name: str) -> str:
        try:
            contacts = self._backend.instance(handle).find_by_name(name)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"contacts": [_contact_payload(c) for c in contacts]})

    def add_contact(self, handle: int, name: str, phone_number: str) -> str:
        try:
            contact_id = self._backend.instance(handle).add_contact(name, phone_number)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"contactId": contact_id})

    def remove_contact(self, handle: int, contact_id: str) -> str:
        try:
            self._backend.instance(handle).remove_contact(contact_id)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok()


def install_contacts_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> ContactsWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = ContactsWrapperJava(platform, context)
    webview.add_javascript_interface(
        ContactsWrapperFactory(wrapper), FACTORY_JS_NAME
    )
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


class ContactsProxyJs(JsProxy, ContactsProxy):
    """JS side: ``com.ibm.proxies.webview.contacts.ContactsProxyJs``."""

    FACTORY_JS_NAME = FACTORY_JS_NAME
    WRAPPER_JS_NAME = WRAPPER_JS_NAME
    CREATE_INSTANCE = "create_contacts_wrapper_instance"

    @staticmethod
    def _contacts(envelope_json: str) -> List[Contact]:
        payload = decode_or_raise(envelope_json)
        return [_contact_from_payload(c) for c in payload["contacts"]]

    def list_contacts(self) -> List[Contact]:
        return self._call(
            "listContacts",
            lambda: self._contacts(self._wrapper.list_contacts(self._swi)),
        )

    def find_by_name(self, name: str) -> List[Contact]:
        return self._call(
            "findByName",
            lambda: self._contacts(self._wrapper.find_by_name(self._swi, name)),
            name=name,
        )

    def add_contact(self, name: str, phone_number: str) -> str:
        payload = self._call(
            "addContact",
            lambda: decode_or_raise(
                self._wrapper.add_contact(self._swi, name, phone_number)
            ),
            name=name,
            phoneNumber=phone_number,
        )
        return payload["contactId"]

    def remove_contact(self, contact_id: str) -> None:
        self._call(
            "removeContact",
            lambda: decode_or_raise(self._wrapper.remove_contact(self._swi, contact_id)),
            contactId=contact_id,
        )


register_implementation(
    "com.ibm.proxies.webview.contacts.ContactsProxyJs", ContactsProxyJs
)
