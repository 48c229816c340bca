"""The observability plane: span trees, metrics, deterministic export.

Walks through (1) tracing one fault-free invocation, (2) shaking the
substrate and watching resilience decisions appear as span events and
metrics, and (3) the determinism contract — two identically-seeded runs
export byte-identical JSONL.

Run with:  python examples/tracing_and_metrics.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.apps.workforce import scenario
from repro.core.proxies import create_proxy
from repro.core.resilience import chaos_policy
from repro.faults import FaultPlan
from repro.obs import Observability


def traced_location_call():
    """One fault-free getLocation, fully traced."""
    print("=" * 72)
    print("1. One invocation, one span tree")
    print("=" * 72)

    hub = Observability()
    sc = scenario.build_android(observability=hub)
    sc.platform.run_for(5_000.0)  # let the GPS produce a first fix

    location = create_proxy("Location", sc.platform)
    location.set_property("context", sc.new_context())
    location.set_property("provider", "gps")
    hub.tracer.reset()  # drop setup-era spans; keep the invocation only

    fix = location.get_location()
    print(f"\ngetLocation() -> ({fix.latitude:.4f}, {fix.longitude:.4f})\n")
    print(hub.render_trace())


def traced_chaos_run():
    """A faulty substrate: policy decisions become events and metrics."""
    print()
    print("=" * 72)
    print("2. Under faults: retries, fallbacks and breakers in the trace")
    print("=" * 72)

    hub = Observability()
    sc = scenario.build_android(
        fault_plan=FaultPlan.transient(0.5, seed=7, start_ms=1_000.0),
        observability=hub,
    )
    sc.platform.run_for(5_000.0)

    http = create_proxy(
        "Http", sc.platform, resilience=chaos_policy("Http", seed=7)
    )
    http.set_property("context", sc.new_context())
    hub.tracer.reset()

    for _ in range(3):
        response = http.post(
            "http://workforce.example.com/api/event",
            '{"agent": "agent-7", "event": "checkpoint"}',
        )
        print(f"POST /api/event -> {response.status}")

    print()
    print(hub.render_trace())
    print()
    print("Metrics after the run:")
    print(hub.render_metrics())


def deterministic_export():
    """Same seeds, same bytes: the JSONL export is reproducible."""
    print()
    print("=" * 72)
    print("3. Determinism: identical seeds export identical JSONL")
    print("=" * 72)

    def one_run() -> str:
        hub = Observability()
        sc = scenario.build_android(
            fault_plan=FaultPlan.transient(0.5, seed=7, start_ms=1_000.0),
            observability=hub,
        )
        sc.platform.run_for(5_000.0)
        http = create_proxy(
            "Http", sc.platform, resilience=chaos_policy("Http", seed=7)
        )
        http.set_property("context", sc.new_context())
        http.post(
            "http://workforce.example.com/api/event",
            '{"agent": "agent-7", "event": "checkpoint"}',
        )
        return hub.export_jsonl()

    first, second = one_run(), one_run()
    print(f"\nrun 1: {len(first.splitlines())} spans, {len(first)} bytes")
    print(f"run 2: {len(second.splitlines())} spans, {len(second)} bytes")
    print(f"byte-identical: {first == second}")
    assert first == second
    print("\nFirst exported span:")
    print(first.splitlines()[0])


if __name__ == "__main__":
    traced_location_call()
    traced_chaos_run()
    deterministic_export()
