"""Android binding of the Call proxy (over the internal IPhone interface)."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.android_common import AndroidBinding
from repro.core.proxies.call.api import CallProxy, UniformCallCallback, as_call_listener
from repro.core.proxies.factory import register_implementation
from repro.core.proxy.datatypes import CallHandle, CallOutcome
from repro.device.telephony import CallSession, CallState
from repro.platforms.android.context import Context
from repro.platforms.android.platform import AndroidPlatform

#: Device-level call states → uniform outcomes.
_OUTCOMES = {
    CallState.ENDED: CallOutcome.COMPLETED,
    CallState.BUSY: CallOutcome.BUSY,
    CallState.UNREACHABLE: CallOutcome.UNREACHABLE,
    CallState.FAILED: CallOutcome.FAILED,
}


class AndroidCallProxyImpl(AndroidBinding, CallProxy):
    """``com.ibm.proxies.android.call.CallProxyImpl``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: AndroidPlatform) -> None:
        super().__init__(descriptor, platform)
        self._sessions: Dict[str, CallSession] = {}

    def make_a_call(
        self,
        number: str,
        call_listener: Optional[UniformCallCallback] = None,
    ) -> CallHandle:
        listener = as_call_listener(call_listener)

        def attempt() -> CallHandle:
            context = self._context("makeACall")
            phone = context.get_system_service(Context.TELEPHONY_SERVICE)
            handle_holder: Dict[str, CallHandle] = {}

            def on_state(session: CallSession) -> None:
                handle = handle_holder.get("handle")
                if handle is None:
                    return
                if session.state is CallState.RINGING and listener is not None:
                    listener.on_ringing(handle)
                elif session.state is CallState.ACTIVE:
                    handle.answered = True
                    if listener is not None:
                        listener.on_answered(handle)
                elif session.is_terminal:
                    outcome = _OUTCOMES.get(session.state, CallOutcome.FAILED)
                    # A never-answered normal hang-up means nobody picked up.
                    if outcome is CallOutcome.COMPLETED and not handle.answered:
                        outcome = CallOutcome.NO_ANSWER
                    handle.outcome = outcome
                    if listener is not None:
                        listener.on_finished(handle)

            session = phone.call(number, on_state if listener is not None else None)
            self._trace_event("binding.call_session", call_id=session.call_id)
            handle = CallHandle(call_id=session.call_id, number=number)
            handle_holder["handle"] = handle
            self._sessions[handle.call_id] = session
            return handle

        # No fallback: a phone call cannot be gracefully degraded.
        return self._call("makeACall", attempt, number=number)

    def end_call(self, call_handle: CallHandle) -> None:
        def attempt() -> None:
            session = self._sessions.get(call_handle.call_id)
            if session is None:
                return
            context = self._context("endCall")
            phone = context.get_system_service(Context.TELEPHONY_SERVICE)
            phone.end_call(session)

        self._call("endCall", attempt)


register_implementation(
    "com.ibm.proxies.android.call.CallProxyImpl", AndroidCallProxyImpl
)
