"""Idempotency-key store: exactly-once substrate writes under retries.

The resilience plane retries transient failures by re-invoking the
binding thunk.  When the substrate applied the side effect but the
acknowledgement was lost (the ``ack_lost`` fault kind), a bare retry
would duplicate the write.  The store closes the gap: the substrate
write site wraps its *apply* step in :meth:`IdempotencyStore.execute`
keyed by the attempt chain (see :mod:`repro.util.idempotency`); a
replayed key skips the apply and returns the recorded result instead,
surfacing the suppression as ``distrib.dedup_hits`` metrics and a
``distrib.dedup`` event on the in-flight resilience span.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.util.idempotency import ChainContext, chain_context, current_chain

__all__ = [
    "ChainContext",
    "chain_context",
    "current_chain",
    "IdempotencyStore",
]


class IdempotencyStore:
    """Remembers which keys have been applied and what they returned.

    Single-node on purpose — it guards one substrate component
    (one ``SmsCenter``, one ``SimulatedNetwork``), which is where the
    duplicate would happen.  Every key is kept for the run.
    """

    def __init__(
        self,
        metrics=None,
        *,
        label: str = "default",
        region: Optional[str] = None,
    ) -> None:
        self._metrics = metrics
        self.label = label
        #: Home region of the guarded component (distrib wiring); adds
        #: a ``region`` attribute to every ``distrib.dedup`` event so
        #: suppressions join the cross-region causal graph.
        self.region = region
        self._results: Dict[str, Any] = {}

    def bind_metrics(self, metrics) -> None:
        """Late-bind a metrics registry (device wiring convenience)."""
        self._metrics = metrics

    def _count(self, metric: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(metric, store=self.label).inc()

    def seen(self, key: str) -> bool:
        return key in self._results

    def result_of(self, key: str) -> Any:
        return self._results.get(key)

    def record(self, key: str, result: Any = None) -> None:
        """Mark ``key`` applied with ``result`` as its replay value."""
        self._results[key] = result

    def execute(
        self, key: str, thunk: Callable[[], Any], **event_attrs: Any
    ) -> Any:
        """Run ``thunk`` exactly once per ``key``.

        A first call applies the thunk and records its return value; a
        replay skips the thunk and returns the recorded value, counting
        a ``distrib.dedup_hits`` and emitting a ``distrib.dedup`` event
        on the open attempt chain's tracer (inside the in-flight
        resilience span, so trace analysis can attribute the
        suppression to its retry).
        """
        if key in self._results:
            self._count("distrib.dedup_hits")
            chain = current_chain()
            if chain is not None and chain.tracer is not None and (
                chain.tracer.enabled
            ):
                # The raw key embeds a process-global chain ordinal, so it
                # stays out of the event — exports must be byte-identical
                # across same-seed runs within one process too.  The
                # chain *tag* (per-runtime ordinal) is reproducible and
                # makes the suppression joinable in the causal graph.
                extra: Dict[str, Any] = {}
                if chain.tag:
                    extra["chain"] = chain.tag
                if self.region is not None:
                    extra["region"] = self.region
                chain.tracer.event(
                    "distrib.dedup", store=self.label, **extra, **event_attrs
                )
            return self._results[key]
        self._count("distrib.dedup_misses")
        result = thunk()
        self.record(key, result)
        return result

    def __len__(self) -> int:
        return len(self._results)

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic view of recorded keys (insertion order)."""
        return dict(self._results)
