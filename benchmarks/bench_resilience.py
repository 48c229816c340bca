"""Resilience-wrapper overhead on the fault-free fast path.

The policy layer sits on every proxied invocation, so its cost when
nothing fails is the price every caller pays.  Three tiers are measured
on the same Android Location binding:

* ``bare``     — ``resilience=False``: ``MProxy._call`` runs the thunk
  in a binding span with uniform exception mapping, no runtime;
* ``default``  — the passthrough-safe default policy (counters only);
* ``chaos``    — the full chaos profile (retry budget, timeout
  accounting, circuit breaker) with zero faults injected.

A micro tier times ``ResilienceRuntime.execute`` around a trivial thunk
to isolate the engine itself from proxy and substrate cost.
"""

import pytest

from repro.apps.workforce import scenario
from repro.core.proxies import create_proxy, standard_registry
from repro.core.resilience import ResiliencePolicy, ResilienceRuntime, chaos_policy
from repro.util.clock import Scheduler, SimulatedClock

TIERS = {
    "bare": False,
    "default": None,  # factory default: passthrough ResiliencePolicy()
    "chaos": chaos_policy("Location"),
}


@pytest.fixture(scope="module")
def world():
    sc = scenario.build_android()
    sc.platform.run_for(5_000.0)  # let the GPS produce a first fix
    return sc


def _location_proxy(sc, resilience):
    proxy = create_proxy("Location", sc.platform, resilience=resilience)
    proxy.set_property("context", sc.new_context())
    proxy.set_property("provider", "gps")
    return proxy


@pytest.mark.parametrize("tier", list(TIERS), ids=list(TIERS))
def test_get_location_overhead(benchmark, world, tier):
    """Full proxied getLocation under each resilience tier, fault-free."""
    proxy = _location_proxy(world, TIERS[tier])
    result = benchmark(proxy.get_location)
    assert result is not None
    if tier != "bare":
        stats = proxy.resilience.stats
        assert stats.failures == 0
        assert stats.retries == 0


def test_runtime_engine_micro_overhead(benchmark):
    """The engine alone: execute() around a trivial thunk (chaos policy)."""
    binding = standard_registry().binding("Location", "android")
    runtime = ResilienceRuntime(
        chaos_policy("Location"), Scheduler(SimulatedClock()), label="bench"
    )
    result = benchmark(lambda: runtime.execute(binding, "getLocation", lambda: 42))
    assert result == 42


def test_runtime_engine_passthrough_micro_overhead(benchmark):
    """The engine alone under the default passthrough policy."""
    binding = standard_registry().binding("Location", "android")
    runtime = ResilienceRuntime(
        ResiliencePolicy(), Scheduler(SimulatedClock()), label="bench"
    )
    result = benchmark(lambda: runtime.execute(binding, "getLocation", lambda: 42))
    assert result == 42


def test_thunk_baseline(benchmark):
    """Floor: the bare thunk with no engine at all."""
    thunk = lambda: 42
    assert benchmark(thunk) == 42
