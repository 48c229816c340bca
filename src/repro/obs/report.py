"""Registry-backed run reports.

The aggregation helpers the chaos suite consumes
(:func:`resilience_report`, :func:`fault_report`, :func:`breaker_report`,
:func:`chaos_summary`) live here, rebuilt on top of the
:class:`~repro.obs.metrics.MetricsRegistry` series the resilience
runtimes and the fault injector populate.

Every helper is guarded for empty/zero-sample runs: no proxies, no
runtimes, no injector and no faults all yield well-formed zeroed
reports instead of raising.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

#: The resilience counter fields, in report order (the registry stores
#: them as ``resilience.<field>{runtime=<label>}`` series).
RESILIENCE_FIELDS = (
    "attempts",
    "successes",
    "failures",
    "retries",
    "timeouts",
    "circuit_rejections",
    "fallbacks_served",
)


def zeroed_resilience_stats() -> Dict[str, int]:
    """The shape of one runtime's counters with no samples."""
    return {field: 0 for field in RESILIENCE_FIELDS}


def resilience_report(proxies: Iterable) -> Dict[str, Dict[str, int]]:
    """Per-proxy resilience counters, keyed by runtime label.

    Accepts any iterable of proxies; proxies without an attached runtime
    are skipped.  An extra ``"total"`` entry sums every counter and is
    fully zeroed when no runtime contributed anything.
    """
    report: Dict[str, Dict[str, int]] = {}
    totals = zeroed_resilience_stats()
    for proxy in proxies or ():
        runtime = getattr(proxy, "resilience", None)
        if runtime is None:
            continue
        stats = runtime.stats.as_dict()
        report[runtime.label] = stats
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    report["total"] = totals
    return report


def fault_report(injector) -> Dict[str, Any]:
    """What the fault plane actually injected: counts plus fingerprint.

    ``injector`` may be ``None`` (or a fault-free injector); the report
    is then well-formed and zeroed.
    """
    if injector is None:
        return {"total": 0, "by_site": {}, "schedule": []}
    return {
        "total": injector.total_injected(),
        "by_site": injector.counts(),
        "schedule": injector.schedule(),
    }


def breaker_report(proxies: Iterable) -> Dict[str, list]:
    """Every circuit-breaker transition, keyed by runtime label."""
    report: Dict[str, list] = {}
    for proxy in proxies or ():
        runtime = getattr(proxy, "resilience", None)
        if runtime is None:
            continue
        transitions = runtime.breaker_transitions()
        if transitions:
            report[runtime.label] = [
                (operation, t_ms, frm.value, to.value)
                for operation, t_ms, frm, to in transitions
            ]
    return report


def chaos_summary(injector, proxies: Iterable) -> Dict[str, Any]:
    """The one-stop JSON-able summary of a chaos run."""
    proxies = list(proxies or ())
    return {
        "faults": fault_report(injector),
        "resilience": resilience_report(proxies),
        "breakers": breaker_report(proxies),
    }


def instrumentation_points(descriptor) -> List[Dict[str, Any]]:
    """The span names one proxy's invocations can produce, per method.

    Derived from the descriptor's semantic plane — the same structured
    data that drives the runtime — so the documentation can never drift
    from the dispatch instrumentation in ``MProxy._call``.
    """
    points: List[Dict[str, Any]] = []
    for method in descriptor.semantic.methods:
        points.append(
            {
                "method": method.name,
                "spans": [
                    f"dispatch:{method.name}",
                    f"resilience:{method.name}",
                    f"binding:{method.name}",
                    "substrate:<native operation>",
                ],
                "metrics": [
                    f'resilience.<field>{{runtime="{descriptor.interface}/<platform>"}}'
                ],
            }
        )
    return points
