"""Android binding of the SMS proxy.

Hides the PendingIntent result plumbing: the binding mints private
broadcast actions for the sent/delivered intents, registers an internal
receiver, and translates result codes into uniform listener calls.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.android_common import AndroidBinding
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.sms.api import SmsProxy, UniformSmsCallback, as_status_listener
from repro.core.proxy.callbacks import SmsStatusListener
from repro.core.resilience import UNHANDLED
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.android.intents import Intent, IntentFilter, IntentReceiver, PendingIntent
from repro.platforms.android.platform import AndroidPlatform
from repro.platforms.android.telephony import (
    EXTRA_MESSAGE_ID,
    EXTRA_RESULT_CODE,
    RESULT_OK,
)

_SENT_ACTION_PREFIX = "com.ibm.proxies.android.intent.action.SMS_SENT"
_DELIVERED_ACTION_PREFIX = "com.ibm.proxies.android.intent.action.SMS_DELIVERED"


class _StatusReceiver(IntentReceiver):
    """Translates result broadcasts into uniform listener events.

    Each message's receivers are one-shot: once the terminal outcome for
    their role arrives they unregister, so long-running applications do
    not accumulate dead receivers in the broadcast registry.
    """

    def __init__(self, listener: SmsStatusListener, kind: str) -> None:
        self._listener = listener
        self._kind = kind  # "sent" or "delivered"
        #: A failed send means the delivery broadcast will never come;
        #: the sent-receiver tears its sibling down too.
        self.sibling: "_StatusReceiver" = None

    def on_receive_intent(self, context: Context, intent: Intent) -> None:
        code = intent.get_extra(EXTRA_RESULT_CODE)
        message_id = intent.get_string_extra(EXTRA_MESSAGE_ID) or ""
        context.unregister_receiver(self)
        if code == RESULT_OK:
            if self._kind == "sent":
                self._listener.on_sent(message_id)
            else:
                self._listener.on_delivered(message_id)
        else:
            if self.sibling is not None:
                context.unregister_receiver(self.sibling)
            self._listener.on_failed(message_id, f"result code {code}")


class AndroidSmsProxyImpl(AndroidBinding, SmsProxy):
    """``com.ibm.proxies.android.sms.SmsProxyImpl``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: AndroidPlatform) -> None:
        super().__init__(descriptor, platform)
        self._send_counter = 0

    def send_text_message(
        self,
        destination: str,
        text: str,
        status_listener: Optional[UniformSmsCallback] = None,
    ) -> str:
        listener = as_status_listener(status_listener)
        # The status receivers are registered once per logical call, by
        # its first attempt, and shared by every retry.
        receivers: List[_StatusReceiver] = []
        sent_intent = delivery_intent = None

        def attempt() -> str:
            nonlocal sent_intent, delivery_intent
            context = self._context("sendTextMessage")
            manager = self._platform.sms_manager(context)
            if listener is not None and not receivers:
                self._send_counter += 1
                sent_action = f"{_SENT_ACTION_PREFIX}_{self._send_counter}"
                sent_receiver = _StatusReceiver(listener, "sent")
                context.register_receiver(sent_receiver, IntentFilter(sent_action))
                receivers.append(sent_receiver)
                sent_intent = PendingIntent.get_broadcast(
                    context, 0, Intent(sent_action)
                )
                if self.get_property("deliveryReports"):
                    delivered_action = (
                        f"{_DELIVERED_ACTION_PREFIX}_{self._send_counter}"
                    )
                    delivered_receiver = _StatusReceiver(listener, "delivered")
                    sent_receiver.sibling = delivered_receiver
                    context.register_receiver(
                        delivered_receiver, IntentFilter(delivered_action)
                    )
                    receivers.append(delivered_receiver)
                    delivery_intent = PendingIntent.get_broadcast(
                        context, 0, Intent(delivered_action)
                    )
                self._trace_event(
                    "binding.status_receivers_registered",
                    delivery_reports=delivery_intent is not None,
                )
            return manager.send_text_message(
                destination,
                self.get_property("serviceCenter"),
                text,
                sent_intent=sent_intent,
                delivery_intent=delivery_intent,
            )

        def release_receivers() -> None:
            for receiver in receivers:
                self.get_property("context").unregister_receiver(receiver)

        # Resilience: a transiently-refused submission can be parked on
        # the redelivery queue (attached by the factory when configured);
        # the degraded return is the queue entry's id.
        queue = getattr(self, "redelivery_queue", None)
        fallback = None
        if queue is not None:
            enqueue = queue.fallback_for(destination, text)

            def fallback(error: ProxyError):
                queue_id = enqueue(error)
                if queue_id is not UNHANDLED:
                    # The queue re-sends without a listener, so no
                    # broadcast will reach this call's receivers.
                    release_receivers()
                return queue_id

        try:
            return self._call(
                "sendTextMessage",
                attempt,
                fallback=fallback,
                destination=destination,
                text=text,
            )
        except ProxyError:
            # No broadcast will ever reach a failed send's receivers.
            release_receivers()
            raise


register_implementation("com.ibm.proxies.android.sms.SmsProxyImpl", AndroidSmsProxyImpl)
