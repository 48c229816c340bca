"""Sagas: compensation order, recovery, span trees, failure modes."""

import pytest

from repro.distrib import SagaOrchestrator, SagaStep
from repro.errors import ProxyNetworkError
from repro.obs import Observability
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.distrib


@pytest.fixture
def hub():
    return Observability()


@pytest.fixture
def orch(hub):
    return SagaOrchestrator(Scheduler(SimulatedClock()), observability=hub)


def failing_step(name="post"):
    def action():
        raise ProxyNetworkError("injected: peer gone")

    return SagaStep(name, action)


class TestHappyPath:
    def test_run_executes_steps_in_order_and_completes(self, orch):
        order = []
        execution = orch.run(
            "report",
            [
                SagaStep("locate", lambda: order.append("locate") or "fix"),
                SagaStep("post", lambda: order.append("post") or "id-1"),
            ],
        )
        assert order == ["locate", "post"]
        assert execution.status == "completed"
        assert execution.results == {"locate": "fix", "post": "id-1"}

    def test_step_results_feed_later_steps(self, orch):
        execution = orch.begin("report")
        fix = execution.step("locate", lambda: {"lat": 1.0})
        posted = execution.step("post", lambda: f"posted:{fix['lat']}")
        execution.complete()
        assert posted == "posted:1.0"

    def test_complete_is_idempotent(self, orch, hub):
        execution = orch.run("report", [SagaStep("noop", lambda: None)])
        execution.complete()
        assert hub.metrics.total("distrib.sagas_completed") == 1


class TestCompensation:
    def test_failure_compensates_completed_prefix_in_reverse(self, orch):
        undone = []
        steps = [
            SagaStep("a", lambda: "ra", lambda r: undone.append(("a", r))),
            SagaStep("b", lambda: "rb", lambda r: undone.append(("b", r))),
            failing_step("c"),
        ]
        with pytest.raises(ProxyNetworkError):
            orch.run("report", steps)
        assert undone == [("b", "rb"), ("a", "ra")]
        assert orch.by_status("compensated")[0].name == "report"

    def test_steps_without_compensation_are_skipped(self, orch):
        undone = []
        steps = [
            SagaStep("read", lambda: "r"),  # declared side-effect-free
            SagaStep("write", lambda: "w", lambda r: undone.append(r)),
            failing_step(),
        ]
        with pytest.raises(ProxyNetworkError):
            orch.run("report", steps)
        assert undone == ["w"]

    def test_non_proxy_error_propagates_without_compensation(self, orch):
        undone = []
        execution = orch.begin("report")
        execution.step("write", lambda: "w", lambda r: undone.append(r))
        with pytest.raises(ZeroDivisionError):
            execution.step("bug", lambda: 1 / 0)
        assert undone == []  # bugs are loud, not compensated
        assert execution.status == "pending"  # still in doubt

    def test_run_step_on_terminal_saga_raises(self, orch):
        execution = orch.run("report", [SagaStep("noop", lambda: None)])
        with pytest.raises(ValueError):
            execution.step("late", lambda: None)


class TestRecovery:
    def test_recover_compensates_pending_only(self, orch, hub):
        undone = []
        done = orch.run("done", [SagaStep("noop", lambda: None)])
        in_doubt = orch.begin("in-doubt")
        in_doubt.step("write", lambda: "w", lambda r: undone.append(r))
        # Simulated crash: the orchestrator restarts mid-saga.
        recovered = orch.recover()
        assert recovered == [in_doubt]
        assert in_doubt.status == "compensated"
        assert done.status == "completed"
        assert undone == ["w"]
        assert hub.metrics.total("distrib.sagas_recovered") == 1

    def test_recover_on_clean_orchestrator_is_noop(self, orch):
        assert orch.recover() == []


class TestTracing:
    def _spans(self, hub):
        return hub.tracer.finished_spans()

    def _events(self, hub):
        return [
            event for span in self._spans(hub) for event in span.events
        ]

    def test_saga_span_wraps_step_spans(self, orch, hub):
        orch.run(
            "report",
            [SagaStep("locate", lambda: "f"), SagaStep("post", lambda: "p")],
        )
        spans = {span.name: span for span in self._spans(hub)}
        root = spans["saga:report"]
        assert spans["saga.step:locate"].parent_id == root.span_id
        assert spans["saga.step:post"].parent_id == root.span_id
        completed = [e for e in self._events(hub) if e.name == "saga.completed"]
        assert completed[0].attributes == {"saga": "report", "steps": 2}

    def test_failed_saga_emits_compensate_spans_and_events(self, orch, hub):
        steps = [
            SagaStep("reserve", lambda: "r", lambda r: None),
            failing_step("commit"),
        ]
        with pytest.raises(ProxyNetworkError):
            orch.run("report", steps)
        names = [span.name for span in self._spans(hub)]
        assert "saga.compensate:reserve" in names
        events = {event.name: event for event in self._events(hub)}
        assert events["saga.step.failed"].attributes["step"] == "commit"
        assert events["saga.step.failed"].attributes["error"] == (
            "ProxyNetworkError"
        )
        assert events["saga.compensated"].attributes["undone"] == 1

    def test_metrics_roll_up(self, orch, hub):
        orch.run("ok", [SagaStep("s", lambda: None)])
        with pytest.raises(ProxyNetworkError):
            orch.run("bad", [failing_step()])
        assert hub.metrics.total("distrib.sagas_started") == 2
        assert hub.metrics.total("distrib.sagas_completed") == 1
        assert hub.metrics.total("distrib.sagas_compensated") == 1
        assert hub.metrics.total("distrib.saga_steps") == 2
