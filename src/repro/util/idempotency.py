"""Attempt-chain idempotency context.

The resilience layer retries transient failures by re-invoking a
binding thunk.  When the substrate *applied* the side effect but the
acknowledgement was lost (``ack_lost`` faults), a bare retry duplicates
the write.  The fix is an **attempt-chain key**: one logical invocation
— the whole retry chain — shares a single key, published here, and the
substrate write sites (``SmsCenter.submit``, ``SimulatedNetwork`` POST
dispatch) consult an :class:`~repro.distrib.idempotency.IdempotencyStore`
keyed by it, making re-applied writes a no-op.

This module holds only the *context* — a plain stack, no store — so the
device and resilience layers can import it without touching the distrib
package.  Everything is single-threaded on the virtual clock, so a
module-level stack is deterministic.

Nesting rule: only the **outermost** resilience runtime opens a chain.
A WebView JS proxy's runtime wraps an inner Android proxy; if the inner
runtime minted its own key per attempt, every outer retry would carry a
fresh inner key and dedup would never fire.  Inner scopes therefore
ride the already-open chain.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Tuple


class ChainContext:
    """One open attempt chain: the dedup key plus the tracer whose
    in-flight span should receive ``distrib.dedup`` events.

    ``tag`` is the chain's *trace-joinable* identity: where ``key``
    embeds the process-global ordinal below (unique, but different
    between two same-seed runs sharing one interpreter), the tag is
    minted from a per-runtime counter — deterministic per run — so it
    is safe to stamp on spans and events.  The causal analyzer uses it
    to stitch a retried attempt chain's dedup hits and saga spans
    together.

    A resilience runtime opens a chain on every call and passes
    ``origin`` = (runtime label, operation, global ordinal, runtime
    ordinal) instead of the strings: the key
    ``<label>:<operation>:<global ordinal>`` and the tag
    ``<label>:<operation>#<runtime ordinal>`` are formatted on first
    read, since most calls write nothing that reads them.
    """

    __slots__ = ("tracer", "_key", "_tag", "_origin")

    def __init__(
        self,
        key: Optional[str] = None,
        tracer=None,
        tag: Optional[str] = None,
        origin: Optional[Tuple[str, str, int, int]] = None,
    ) -> None:
        self._key = key
        self.tracer = tracer
        self._tag = tag
        self._origin = origin

    @property
    def key(self) -> str:
        if self._key is None:
            label, operation, sequence, _ = self._origin
            self._key = f"{label}:{operation}:{sequence}"
        return self._key

    @property
    def tag(self) -> Optional[str]:
        if self._tag is None and self._origin is not None:
            label, operation, _, ordinal = self._origin
            self._tag = f"{label}:{operation}#{ordinal}"
        return self._tag


#: The open chains, innermost last.  Every push is paired with a pop in
#: a ``finally``: :func:`chain_context` pairs them for most callers, and
#: the resilience runtime inline, on every proxied call.
CHAIN_STACK: List[ChainContext] = []

_SEQUENCE = 0


def next_chain_sequence() -> int:
    """A process-wide monotonic chain ordinal.

    Chain keys must be unique across *every* resilience runtime — two
    proxies with the same label would otherwise mint colliding keys and
    dedup each other's first writes.  Execution order on the virtual
    clock is deterministic, so a global counter preserves the same-seed
    replay contract.
    """
    global _SEQUENCE
    _SEQUENCE += 1
    return _SEQUENCE


def current_chain() -> Optional[ChainContext]:
    """The innermost open chain context, or ``None`` outside any."""
    return CHAIN_STACK[-1] if CHAIN_STACK else None


@contextlib.contextmanager
def chain_context(
    key: str, tracer=None, tag: Optional[str] = None
) -> Iterator[ChainContext]:
    """Open an attempt chain for one logical invocation.

    Re-entrant: when a chain is already open the existing context is
    reused (see the nesting rule above) and ``key``/``tag`` are ignored.
    """
    if CHAIN_STACK:
        yield CHAIN_STACK[-1]
        return
    context = ChainContext(key, tracer, tag)
    CHAIN_STACK.append(context)
    try:
        yield context
    finally:
        CHAIN_STACK.pop()
