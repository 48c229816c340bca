"""Trace and metric exporters.

Two export surfaces, matched to two consumers:

* :func:`export_jsonl` — one JSON object per span, sorted keys,
  virtual-time stamps only — byte-identical for identical seeded runs;
  the ``python -m repro.obs`` trace analyzers read this form back;
* :func:`render_span_tree` / :func:`render_metrics_text` — the
  human-readable operator view.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import Span


def export_jsonl(spans: Iterable[Span]) -> str:
    """Spans as JSON Lines (deterministic: sorted keys, virtual time)."""
    lines = [
        json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
        for span in spans
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_span_tree(spans: Iterable[Span], *, include_events: bool = True) -> str:
    """ASCII rendering of the span forest, in start order.

    A span whose ``parent_id`` is not present in the rendered batch
    (partial or filtered exports) is treated as a root rather than
    silently dropped.
    """
    spans = list(spans)
    known_ids = {span.span_id for span in spans}
    children: Dict[int, List[Span]] = {}
    roots: List[Span] = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in known_ids:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)

    lines: List[str] = []

    def _walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        status = "" if span.status == "ok" else f" [{span.status}: {span.error}]"
        attrs = ""
        if span.attributes:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(span.attributes.items())
            )
            attrs = f" ({rendered})"
        lines.append(
            f"{indent}{span.name}{attrs} "
            f"@{span.start_virtual_ms:.1f}ms +{span.duration_virtual_ms:.1f}ms"
            f"{status}"
        )
        if include_events:
            for event in span.events:
                event_attrs = ""
                if event.attributes:
                    rendered = ", ".join(
                        f"{key}={value}"
                        for key, value in sorted(event.attributes.items())
                    )
                    event_attrs = f" ({rendered})"
                lines.append(
                    f"{indent}  * {event.name}{event_attrs} @{event.t_virtual_ms:.1f}ms"
                )
        for child in children.get(span.span_id, []):
            _walk(child, depth + 1)

    for root in roots:
        _walk(root, 0)
    return "\n".join(lines)


def _instrument_kind(instrument) -> str:
    if isinstance(instrument, Histogram):
        return "histogram"
    if isinstance(instrument, Gauge):
        return "gauge"
    if isinstance(instrument, Counter):
        return "counter"
    return type(instrument).__name__.lower()


def render_metrics_text(registry: MetricsRegistry) -> str:
    """Flat, sorted, human-readable metric dump.

    Every series states its kind; histograms additionally render their
    percentiles (interpolated from the buckets, clamped to the observed
    min and max) and the cumulative bucket line.
    """
    lines: List[str] = []
    for instrument in registry.collect():
        labels = ",".join(
            f"{key}={value}" for key, value in sorted(instrument.labels.items())
        )
        series = f"{instrument.name}{{{labels}}}" if labels else instrument.name
        kind = _instrument_kind(instrument)
        if isinstance(instrument, Histogram):
            percentiles = " ".join(
                f"{label}={value:.3f}"
                for label, value in instrument.percentiles().items()
            )
            lines.append(
                f"{series} {kind} count={instrument.count} "
                f"sum={instrument.sum:.3f} mean={instrument.mean:.3f} {percentiles}"
            )
            buckets = " ".join(
                f"le{'+Inf' if bound == float('inf') else format(bound, 'g')}"
                f"={count}"
                for bound, count in instrument.cumulative()
            )
            lines.append(f"  buckets: {buckets}")
        else:
            lines.append(f"{series} {kind} {instrument.value}")
    return "\n".join(lines)
