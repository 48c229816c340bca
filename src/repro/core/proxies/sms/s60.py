"""S60 binding of the SMS proxy.

Hides the Generic Connection Framework ceremony (``Connector.open`` on an
``sms://`` URL, ``new_message``, blocking ``send``).  The WMA stack has no
delivery reports, so the binding fires the uniform ``on_sent`` after the
blocking send returns and never fires ``on_delivered`` — a platform
capability gap documented in the binding plane's notes, not papered over
with fake events.
"""

from __future__ import annotations

from typing import Optional

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.s60_common import S60Binding
from repro.core.proxies.sms.api import SmsProxy, UniformSmsCallback, as_status_listener
from repro.platforms.s60.platform import S60Platform
from repro.util.identifiers import IdGenerator


class S60SmsProxyImpl(S60Binding, SmsProxy):
    """``com.ibm.S60.sms.SmsProxy``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: S60Platform) -> None:
        super().__init__(descriptor, platform)
        self._ids = IdGenerator()

    def send_text_message(
        self,
        destination: str,
        text: str,
        status_listener: Optional[UniformSmsCallback] = None,
    ) -> str:
        listener = as_status_listener(status_listener)
        message_id = self._ids.next("s60sms")

        def attempt() -> str:
            connection = self._platform.connector.open(f"sms://{destination}")
            self._trace_event("binding.connector_opened", scheme="sms")
            try:
                message = connection.new_message(connection.TEXT_MESSAGE)
                message.set_payload_text(text)
                connection.send(message)
            finally:
                connection.close()
            return message_id

        queue = getattr(self, "redelivery_queue", None)
        fallback = queue.fallback_for(destination, text) if queue else None
        result = self._call(
            "sendTextMessage",
            attempt,
            fallback=fallback,
            destination=destination,
            text=text,
        )
        if listener is not None and result == message_id:
            # The blocking send returned: the network accepted the message.
            listener.on_sent(message_id)
        return result


register_implementation("com.ibm.S60.sms.SmsProxy", S60SmsProxyImpl)
