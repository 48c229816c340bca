"""Registry-backed reports, including the empty/zero-sample-run guards."""

import pytest

from repro.core.proxies import standard_registry
from repro.core.resilience import ResiliencePolicy, ResilienceRuntime
from repro.faults import FaultInjector, FaultPlan
from repro.obs.report import (
    RESILIENCE_FIELDS,
    breaker_report,
    chaos_summary,
    fault_report,
    instrumentation_points,
    resilience_report,
    zeroed_resilience_stats,
)
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.obs


class _Stub:
    """A proxy-shaped object with (or without) a resilience runtime."""

    def __init__(self, runtime=None):
        if runtime is not None:
            self.resilience = runtime


def _runtime(label="stub"):
    return ResilienceRuntime(
        ResiliencePolicy(), Scheduler(SimulatedClock()), label=label
    )


class TestEmptyRunGuards:
    """The satellite: aggregators must not choke on empty/zero-sample runs."""

    def test_resilience_report_no_proxies(self):
        report = resilience_report([])
        assert report == {"total": zeroed_resilience_stats()}
        assert all(report["total"][field] == 0 for field in RESILIENCE_FIELDS)

    def test_resilience_report_accepts_none(self):
        assert resilience_report(None)["total"] == zeroed_resilience_stats()

    def test_resilience_report_skips_runtimeless_proxies(self):
        report = resilience_report([_Stub(), _Stub(_runtime())])
        assert set(report) == {"stub", "total"}
        assert report["stub"] == zeroed_resilience_stats()

    def test_fault_report_none_injector(self):
        assert fault_report(None) == {"total": 0, "by_site": {}, "schedule": []}

    def test_fault_report_fault_free_injector(self):
        injector = FaultInjector(FaultPlan(seed=0), SimulatedClock())
        report = fault_report(injector)
        assert report["total"] == 0
        assert report["by_site"] == {}
        assert report["schedule"] == []

    def test_breaker_report_empty(self):
        assert breaker_report([]) == {}
        assert breaker_report(None) == {}
        assert breaker_report([_Stub(_runtime())]) == {}  # no transitions yet

    def test_chaos_summary_of_nothing(self):
        summary = chaos_summary(None, [])
        assert summary["faults"]["total"] == 0
        assert summary["resilience"]["total"] == zeroed_resilience_stats()
        assert summary["breakers"] == {}


class TestPopulatedReports:
    def test_resilience_report_sums_runtimes(self):
        first, second = _runtime("a"), _runtime("b")
        first.stats.inc("attempts")
        first.stats.inc("successes")
        second.stats.inc("attempts", 2)
        report = resilience_report([_Stub(first), _Stub(second)])
        assert report["a"]["attempts"] == 1
        assert report["b"]["attempts"] == 2
        assert report["total"]["attempts"] == 3
        assert report["total"]["successes"] == 1


class TestInstrumentationPoints:
    def test_every_semantic_method_is_listed(self):
        descriptor = standard_registry().descriptor("Location")
        points = instrumentation_points(descriptor)
        methods = {point["method"] for point in points}
        assert "getLocation" in methods
        assert "addProximityAlert" in methods

    def test_span_names_follow_the_vocabulary(self):
        descriptor = standard_registry().descriptor("Http")
        for point in instrumentation_points(descriptor):
            assert point["spans"][0] == f"dispatch:{point['method']}"
            assert point["spans"][1] == f"resilience:{point['method']}"
            assert point["spans"][2] == f"binding:{point['method']}"
            assert point["spans"][3].startswith("substrate:")
            assert point["metrics"]
