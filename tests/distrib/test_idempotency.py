"""Idempotency keys: store semantics, chain nesting, SMS exactly-once.

The last class is the regression test for the duplicate-side-effect bug
this tier exists to close: an ``ack_lost`` fault on ``sms.submit`` used
to deliver the same message twice (the substrate applied the send, the
acknowledgement vanished, the resilience layer retried, the substrate
applied it again).  With attempt-chain keys the retry replays the
recorded result instead.
"""

import pytest

from repro.apps.workforce import scenario
from repro.core.proxies import create_proxy
from repro.core.resilience import chaos_policy
from repro.distrib import IdempotencyStore, chain_context, current_chain
from repro.faults import FaultPlan, FaultRule
from repro.obs import MetricsRegistry, Observability

pytestmark = pytest.mark.distrib


class TestStore:
    def test_execute_runs_thunk_once_per_key(self):
        store = IdempotencyStore()
        calls = []
        assert store.execute("k", lambda: calls.append(1) or "r") == "r"
        assert store.execute("k", lambda: calls.append(2) or "other") == "r"
        assert calls == [1]
        assert store.seen("k")
        assert store.result_of("k") == "r"

    def test_metrics_count_hits_and_misses(self):
        metrics = MetricsRegistry()
        store = IdempotencyStore(metrics, label="smsc")
        store.execute("a", lambda: None)
        store.execute("a", lambda: None)
        store.execute("b", lambda: None)
        assert metrics.total("distrib.dedup_misses") == 2
        assert metrics.total("distrib.dedup_hits") == 1

    def test_failed_thunk_is_not_recorded(self):
        store = IdempotencyStore()
        with pytest.raises(ValueError):
            store.execute("k", lambda: (_ for _ in ()).throw(ValueError()))
        assert not store.seen("k")  # a real retry may still apply it

    def test_snapshot_preserves_insertion_order(self):
        store = IdempotencyStore()
        store.record("b", 1)
        store.record("a", 2)
        assert list(store.snapshot()) == ["b", "a"]


class TestChainContext:
    def test_no_chain_outside_any_context(self):
        assert current_chain() is None

    def test_chain_visible_inside_and_popped_after(self):
        with chain_context("chain-1") as chain:
            assert current_chain() is chain
            assert chain.key == "chain-1"
        assert current_chain() is None

    def test_inner_scope_rides_the_outer_chain(self):
        # The WebView-over-Android nesting rule: the inner runtime must
        # NOT mint a fresh key per attempt or dedup would never fire.
        with chain_context("outer") as outer:
            with chain_context("inner") as inner:
                assert inner is outer
                assert current_chain().key == "outer"
            assert current_chain() is outer

    def test_chain_popped_even_on_error(self):
        with pytest.raises(RuntimeError):
            with chain_context("chain"):
                raise RuntimeError("boom")
        assert current_chain() is None


class TestSmsExactlyOnce:
    """Regression: ack_lost on sms.submit must not duplicate delivery."""

    RECIPIENT = "+2"

    def _run(self, *, with_fault: bool):
        rules = (
            (FaultRule("sms.submit", "ack_lost", 1.0, max_faults=1),)
            if with_fault
            else ()
        )
        hub = Observability()
        sc = scenario.build_android(
            fault_plan=FaultPlan(seed=11, rules=rules), observability=hub
        )
        store = IdempotencyStore(hub.metrics, label="smsc")
        sc.device.sms_center.attach_idempotency(store)
        proxy = create_proxy(
            "Sms", sc.platform, resilience=chaos_policy("Sms", seed=11)
        )
        proxy.set_property("context", sc.new_context())
        events = []
        proxy.send_text_message(
            self.RECIPIENT, "report ready", lambda e, mid, r: events.append(e)
        )
        sc.platform.run_for(60_000.0)
        return sc, hub, store, events

    def test_without_fault_one_delivery_no_dedup(self):
        sc, hub, store, _ = self._run(with_fault=False)
        assert len(sc.device.sms_center.inbox_of(self.RECIPIENT)) == 1
        assert hub.metrics.total("distrib.dedup_hits") == 0
        assert len(store) == 1  # the one applied submission

    def test_ack_lost_retry_delivers_exactly_once(self):
        sc, hub, store, events = self._run(with_fault=True)
        inbox = sc.device.sms_center.inbox_of(self.RECIPIENT)
        assert len(inbox) == 1, "retry after ack_lost duplicated the send"
        assert inbox[0].text == "report ready"
        # The retry really happened and was really suppressed.
        assert hub.metrics.total("resilience.retries") >= 1
        assert hub.metrics.total("distrib.dedup_hits") >= 1
        assert len(store) == 1  # one logical submission, one key
        # The app still saw a single terminal outcome.
        assert events.count("sent") + events.count("delivered") >= 1

    def test_dedup_event_lands_on_the_resilience_span(self):
        _, hub, _, _ = self._run(with_fault=True)
        events = [
            (event.name, event.attributes)
            for span in hub.tracer.finished_spans()
            for event in span.events
        ]
        dedup = [attrs for name, attrs in events if name == "distrib.dedup"]
        assert dedup, "no distrib.dedup event in the trace"
        assert dedup[0]["store"] == "smsc"
        assert dedup[0]["site"] == "sms.submit"
