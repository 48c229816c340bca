"""Saga orchestration for multi-step proxy flows.

A saga is a sequence of steps (locate → enrich → POST report) where a
later failure must undo the earlier steps' effects.  Each
:class:`SagaStep` pairs a zero-arg ``action`` with an optional
``compensation`` that receives the action's result; when a step raises
a :class:`~repro.errors.ProxyError`, the orchestrator runs the
completed steps' compensations in reverse order and re-raises.
Non-proxy exceptions are *bugs*, not failures — they propagate without
compensation so tests see them loudly.

Crash recovery: :meth:`SagaOrchestrator.recover` compensates every
execution still ``pending`` — the restart path after a simulated crash
leaves sagas in doubt (the chaos suite kills an orchestrator mid-saga
and asserts recovery restores the invariants).

Tracing: each saga is one span tree — ``saga:<name>`` wrapping
``saga.step:<step>`` and ``saga.compensate:<step>`` children, with
``saga.step.failed`` / ``saga.completed`` / ``saga.compensated``
events, so ``python -m repro.obs causal`` can fold a trace into a
saga table.  Metrics: ``distrib.sagas_started`` / ``_completed`` /
``_compensated`` and ``distrib.saga_steps`` (labelled with the home
``region`` when the orchestrator is mounted region-aware).

Causal joinability: a region-aware orchestrator stamps the ``saga:``
span with ``region``, the vector clock at begin time (``causal.vc``)
and — when the saga runs inside an open attempt chain — the chain's
deterministic ``chain`` tag, so the causal analyzer can stitch retried
saga attempts and their replicated writes into one cross-region graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProxyError
from repro.util.clock import Scheduler
from repro.util.idempotency import current_chain

from repro.distrib.causal import CausalTracker, encode_vc


@dataclass(frozen=True)
class SagaStep:
    """One step: what to do, and how to undo it.

    ``action`` takes no arguments and returns the step result;
    ``compensation`` (optional) receives that result.  A step with no
    compensation is assumed side-effect-free (reads).
    """

    name: str
    action: Callable[[], Any]
    compensation: Optional[Callable[[Any], None]] = None


class SagaExecution:
    """One running saga: results so far, completed steps, status.

    Status lifecycle: ``pending`` → ``completed`` (all steps ran and
    :meth:`complete` was called) or ``compensated`` (a step failed, or
    :meth:`SagaOrchestrator.recover` swept it up).
    """

    def __init__(self, orchestrator: "SagaOrchestrator", saga_id: int, name: str):
        self._orchestrator = orchestrator
        self.saga_id = saga_id
        self.name = name
        self.status = "pending"
        self.results: Dict[str, Any] = {}
        self.completed_steps: List[Tuple[SagaStep, Any]] = []
        self._span = None

    # -- step execution -------------------------------------------------------

    def step(
        self,
        name: str,
        action: Callable[[], Any],
        compensation: Optional[Callable[[Any], None]] = None,
    ) -> Any:
        """Run one step; on :class:`ProxyError` compensate and re-raise."""
        return self.run_step(SagaStep(name, action, compensation))

    def run_step(self, step: SagaStep) -> Any:
        if self.status != "pending":
            raise ValueError(
                f"saga {self.name!r} is {self.status}; cannot run step "
                f"{step.name!r}"
            )
        orch = self._orchestrator
        orch._count("distrib.saga_steps", saga=self.name)
        tracer = orch._tracer
        step_attrs: Dict[str, Any] = {"saga": self.name}
        if orch.region is not None:
            step_attrs["region"] = orch.region
        step_span = (
            tracer.start_span(f"saga.step:{step.name}", **step_attrs)
            if tracer is not None
            else None
        )
        try:
            result = step.action()
        except ProxyError as exc:
            if tracer is not None:
                tracer.event(
                    "saga.step.failed",
                    saga=self.name,
                    step=step.name,
                    error=type(exc).__name__,
                )
                step_span.mark_error(exc)
                tracer.end_span(step_span)
            self.compensate(reason=type(exc).__name__)
            raise
        else:
            if step_span is not None:
                tracer.end_span(step_span)
        self.results[step.name] = result
        self.completed_steps.append((step, result))
        return result

    # -- terminal transitions -------------------------------------------------

    def complete(self) -> "SagaExecution":
        """Mark the saga successfully finished and close its span."""
        if self.status != "pending":
            return self
        self.status = "completed"
        orch = self._orchestrator
        orch._count("distrib.sagas_completed", saga=self.name)
        tracer = orch._tracer
        if tracer is not None:
            tracer.event(
                "saga.completed", saga=self.name, steps=len(self.completed_steps)
            )
            if self._span is not None:
                tracer.end_span(self._span)
        return self

    def compensate(self, *, reason: str = "requested") -> "SagaExecution":
        """Undo completed steps in reverse order; terminal state
        ``compensated``.  Compensations for steps without one are
        skipped (declared side-effect-free)."""
        if self.status != "pending":
            return self
        self.status = "compensated"
        orch = self._orchestrator
        tracer = orch._tracer
        comp_attrs: Dict[str, Any] = {"saga": self.name, "reason": reason}
        if orch.region is not None:
            comp_attrs["region"] = orch.region
        for step, result in reversed(self.completed_steps):
            if step.compensation is None:
                continue
            if tracer is not None:
                with tracer.span(
                    f"saga.compensate:{step.name}", **comp_attrs
                ):
                    step.compensation(result)
            else:
                step.compensation(result)
        orch._count("distrib.sagas_compensated", saga=self.name)
        if tracer is not None:
            tracer.event(
                "saga.compensated",
                saga=self.name,
                reason=reason,
                undone=len(self.completed_steps),
            )
            if self._span is not None:
                tracer.end_span(self._span)
        return self


class SagaOrchestrator:
    """Begins, runs and recovers sagas on the shared virtual clock.

    ``region`` (optional) is the home region sagas execute in — it
    labels every saga metric and span so timelines group by region;
    ``causal`` (optional) is the tier's shared
    :class:`~repro.distrib.causal.CausalTracker`, ticked at saga begin
    so the ``saga:`` span carries the vector clock of its start.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        *,
        observability=None,
        region: Optional[str] = None,
        causal: Optional[CausalTracker] = None,
    ) -> None:
        self._scheduler = scheduler
        self._observability = observability
        self.region = region
        self.causal = causal
        self._seq = 0
        self.executions: List[SagaExecution] = []

    @property
    def _tracer(self):
        tracer = self._observability.tracer if self._observability else None
        return tracer if tracer is not None and tracer.enabled else None

    def _count(self, metric: str, **labels: Any) -> None:
        if self._observability is not None:
            if self.region is not None:
                labels.setdefault("region", self.region)
            self._observability.metrics.counter(metric, **labels).inc()

    def begin(self, name: str) -> SagaExecution:
        """Open a saga (and its ``saga:<name>`` span); the caller drives
        steps and must end with :meth:`SagaExecution.complete` — an
        execution left ``pending`` is in doubt and :meth:`recover`
        will compensate it."""
        self._seq += 1
        execution = SagaExecution(self, self._seq, name)
        self.executions.append(execution)
        self._count("distrib.sagas_started", saga=name)
        tracer = self._tracer
        if tracer is not None:
            attributes: Dict[str, Any] = {"saga": name, "saga_id": self._seq}
            if self.region is not None:
                attributes["region"] = self.region
                if self.causal is not None:
                    attributes["causal.vc"] = encode_vc(
                        self.causal.tick(self.region)
                    )
            chain = current_chain()
            if chain is not None and getattr(chain, "tag", None):
                attributes["chain"] = chain.tag
            execution._span = tracer.start_span(f"saga:{name}", **attributes)
        return execution

    def run(self, name: str, steps: Sequence[SagaStep]) -> SagaExecution:
        """Run ``steps`` to completion; a failing step compensates the
        completed prefix and the :class:`ProxyError` propagates."""
        execution = self.begin(name)
        for step in steps:
            execution.run_step(step)
        return execution.complete()

    def recover(self) -> List[SagaExecution]:
        """Compensate every in-doubt (still ``pending``) execution —
        the crash-recovery path.  Returns the executions swept."""
        recovered = []
        for execution in self.executions:
            if execution.status == "pending":
                self._count("distrib.sagas_recovered", saga=execution.name)
                execution.compensate(reason="recovery")
                recovered.append(execution)
        return recovered

    def by_status(self, status: str) -> List[SagaExecution]:
        return [e for e in self.executions if e.status == status]
