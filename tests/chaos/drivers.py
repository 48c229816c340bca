"""Shared drivers for the chaos suite: one seeded workforce run per call.

Each driver builds a scenario with the given :class:`FaultPlan`, launches
the proxied workforce app under :func:`chaos_policy`, runs the full
commute on the virtual clock, and returns everything a test needs to
assert on — the logic, the device's injector, the proxies, and any
uniform errors that escaped to the app surface.
"""

import collections
from dataclasses import dataclass, field
from typing import List

from repro.apps.workforce import scenario
from repro.apps.workforce.proxied import (
    WorkforceLogic,
    launch_on_android,
    launch_on_s60,
    launch_on_webview,
)
from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.resilience import chaos_policy
from repro.errors import ProxyError
from repro.faults import FaultPlan

#: Long enough for the full away -> site -> away -> site commute.
RUN_MS = 200_000.0

#: Virtual-time grace before fault rules activate: app setup (proxy and
#: WebView wrapper construction) runs outside the resilience guards and
#: charges ~100ms of bridge/IPC latency, so plans start after it.
WARMUP_MS = 1_000.0

PLATFORMS = ("android", "s60", "webview")


def transient_plan(rate: float, *, seed: int = 0) -> FaultPlan:
    """The standard chaos-suite plan: uniform transient faults that
    start once app setup is done."""
    return FaultPlan.transient(rate, seed=seed, start_ms=WARMUP_MS)


@dataclass
class ChaosRun:
    """One finished chaos run, ready for assertions."""

    platform: str
    logic: WorkforceLogic
    injector: object
    proxies: List[object]
    #: Uniform ProxyErrors that reached the app surface (always allowed;
    #: anything *else* escaping is a middleware bug and fails the run).
    surfaced: List[ProxyError] = field(default_factory=list)

    def summary(self) -> dict:
        """The injected faults, and each proxy's resilience counters and
        breaker transitions (with state values) under its runtime label."""
        runtimes = [proxy.resilience for proxy in self.proxies]
        return {
            "faults": (self.injector.counts(), self.injector.schedule()),
            "resilience": {r.label: r.stats.as_dict() for r in runtimes},
            "breakers": {
                r.label: [
                    (operation, t_ms, frm.value, to.value)
                    for operation, t_ms, frm, to in r.breaker_transitions()
                ]
                for r in runtimes
            },
        }

    def totals(self) -> collections.Counter:
        """The proxies' resilience counters summed over their runtimes."""
        totals = collections.Counter()
        for proxy in self.proxies:
            totals.update(proxy.resilience.stats.as_dict())
        return totals


def _finish(platform_name, sc, logic, platform) -> ChaosRun:
    run = ChaosRun(
        platform=platform_name,
        logic=logic,
        injector=sc.device.faults,
        proxies=[logic.location, logic.sms, logic.http],
    )
    platform.run_for(RUN_MS)
    try:
        logic.report_location()
    except ProxyError as exc:
        run.surfaced.append(exc)
    return run


def run_android(plan, *, seed: int = 0, observability=None) -> ChaosRun:
    sc = scenario.build_android(fault_plan=plan, observability=observability)
    logic = launch_on_android(
        sc.platform,
        sc.new_context(),
        sc.config,
        resilience=lambda interface: chaos_policy(interface, seed=seed),
    )
    return _finish("android", sc, logic, sc.platform)


def run_s60(plan, *, seed: int = 0, observability=None) -> ChaosRun:
    sc = scenario.build_s60(fault_plan=plan, observability=observability)
    logic = launch_on_s60(
        sc.platform,
        sc.config,
        resilience=lambda interface: chaos_policy(interface, seed=seed),
    )
    return _finish("s60", sc, logic, sc.platform)


def run_webview(plan, *, seed: int = 0, observability=None) -> ChaosRun:
    sc = scenario.build_webview(fault_plan=plan, observability=observability)
    webview = sc.platform.new_webview()
    WebViewPlatformExtension().install_wrappers(
        webview, sc.platform, sc.new_context(), ["Location", "Sms", "Http"]
    )
    holder = {}
    webview.load_page(
        lambda window: holder.update(
            logic=launch_on_webview(
                sc.platform,
                sc.config,
                resilience=lambda interface: chaos_policy(interface, seed=seed),
            )
        )
    )
    return _finish("webview", sc, holder["logic"], sc.platform)


DRIVERS = {"android": run_android, "s60": run_s60, "webview": run_webview}
