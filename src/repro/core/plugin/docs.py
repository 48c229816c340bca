"""Proxy documentation rendering.

The plugin's *presentation* feature, reusable outside the dialog: render a
descriptor's three planes as human-readable markdown — the reference page
a toolkit would show for a proxy, generated from the same structured data
that drives the runtime.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.descriptor.registry import ProxyRegistry


def instrumentation_points(descriptor: ProxyDescriptor) -> List[Dict[str, Any]]:
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


def render_proxy_markdown(descriptor: ProxyDescriptor) -> str:
    """One proxy's reference page."""
    lines: List[str] = [f"# {descriptor.interface} proxy"]
    if descriptor.semantic.description:
        lines += ["", descriptor.semantic.description]

    lines += ["", "## Interface (semantic plane)"]
    for method in descriptor.semantic.methods:
        signature = ", ".join(
            parameter.name for parameter in method.ordered_parameters()
        )
        lines += ["", f"### `{method.name}({signature})`"]
        if method.description:
            lines += ["", method.description]
        if method.parameters:
            lines += ["", "| parameter | dimension | meaning |", "|---|---|---|"]
            for parameter in method.ordered_parameters():
                optional = " *(optional)*" if parameter.optional else ""
                lines.append(
                    f"| `{parameter.name}` | `{parameter.dimension}` | "
                    f"{parameter.description}{optional} |"
                )
        if method.callback is not None:
            event_parameters = ", ".join(
                p.name for p in method.callback.event_parameters
            )
            lines += [
                "",
                f"Callback: `{method.callback.event_name}({event_parameters})` "
                f"on the `{method.callback.parameter_name}` argument.",
            ]
        if method.returns is not None:
            lines += ["", f"Returns: `{method.returns.dimension}` — {method.returns.description}"]

    lines += ["", "## Language types (syntactic planes)"]
    for language in descriptor.languages():
        plane = descriptor.syntactic[language]
        lines += ["", f"### {language} (callback style: {plane.callback_style})"]
        for method_name in sorted(plane.method_types):
            bindings = plane.method_types[method_name]
            typed = ", ".join(
                f"{binding.type_name} {binding.parameter_name}" for binding in bindings
            )
            return_type = plane.return_types.get(method_name, "void")
            lines.append(f"- `{return_type} {method_name}({typed})`")

    lines += ["", "## Platform bindings (binding planes)"]
    for platform in descriptor.platforms():
        binding = descriptor.bindings[platform]
        lines += ["", f"### {platform}", "", f"Implementation: `{binding.implementation_class}`"]
        if binding.properties:
            lines += ["", "| property | type | default | allowed | required |", "|---|---|---|---|---|"]
            for spec in binding.properties:
                allowed = (
                    ", ".join(str(v) for v in spec.allowed_values)
                    if spec.allowed_values
                    else "—"
                )
                lines.append(
                    f"| `{spec.name}` | {spec.type_name} | {spec.default!r} | "
                    f"{allowed} | {'yes' if spec.required else 'no'} |"
                )
        if binding.exceptions:
            lines += ["", "Exceptions:"]
            for exc in binding.exceptions:
                lines.append(
                    f"- `{exc.platform_class}` → `{exc.maps_to}` (code {exc.error_code})"
                )
        if binding.notes:
            lines += ["", f"> {binding.notes}"]

    lines += [
        "",
        "## Observability (instrumentation points)",
        "",
        "With tracing enabled every invocation produces this span tree "
        "(virtual-clock timed; see [OBSERVABILITY.md](OBSERVABILITY.md)):",
    ]
    for point in instrumentation_points(descriptor):
        lines += ["", f"### `{point['method']}`"]
        lines += [f"- span: `{span}`" for span in point["spans"]]
        lines += [f"- metric: `{metric}`" for metric in point["metrics"]]
    return "\n".join(lines) + "\n"


def render_registry_markdown(registry: ProxyRegistry) -> str:
    """The full proxy catalogue as one document."""
    sections = [render_proxy_markdown(registry.descriptor(name)) for name in registry.interfaces()]
    coverage = ["# MobiVine proxy catalogue", "", "| interface | platforms |", "|---|---|"]
    for name in registry.interfaces():
        platforms = ", ".join(registry.descriptor(name).platforms())
        coverage.append(f"| {name} | {platforms} |")
    coverage += [
        "",
        "Every binding runs under the middleware's resilience layer — "
        "per-operation retry, timeout, circuit breaking and graceful "
        "degradation; see [RESILIENCE.md](RESILIENCE.md).",
    ]
    return "\n".join(coverage) + "\n\n" + "\n".join(sections)
