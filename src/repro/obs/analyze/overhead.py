"""Per-layer overhead accounting over exported span trees.

The paper's Figure 10 decomposes one proxied invocation into *native
cost* vs *middleware overhead*.  The span vocabulary makes that
decomposition mechanical: a ``dispatch:<op>`` tree contains exactly one
layer per span-name prefix —

``dispatch`` → ``resilience`` → ``binding`` → ``substrate`` /
``bridge``

— so folding the tree into *exclusive self-time* per layer (a span's
duration minus its children's durations) yields the middleware-vs-native
split per invocation, and aggregating over invocations yields it per
operation × platform.  ``substrate`` self-time is the simulated native
charge; everything else is the MobiVine layer.

All arithmetic is on the deterministic virtual-time stamps, so two
identically-seeded runs produce byte-identical profiles
(:meth:`OverheadProfile.to_json`).  Virtual time only advances on
substrate charges, so virtual middleware self-time is structurally ~0;
the middleware's wall-clock cost per layer is measured from outside
the program by ``python3 -m benchmarks.e2e run --trace``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import DEFAULT_QUANTILES, nearest_rank, quantile_label
from repro.obs.span import Span

#: The layer vocabulary, in stack order.  ``substrate`` is the native
#: charge; the rest is the middleware.
LAYERS: Tuple[str, ...] = ("dispatch", "resilience", "binding", "bridge", "substrate")

#: Layers billed to the middleware (Figure 10's "overhead" bar segment).
MIDDLEWARE_LAYERS: Tuple[str, ...] = ("dispatch", "resilience", "binding", "bridge")

PROFILE_SCHEMA = "repro.obs.profile/v1"


# ---------------------------------------------------------------------------
# Span records: the dict form every analytics entry point consumes
# ---------------------------------------------------------------------------

def parse_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace export into span records (dicts), preserving
    every field: re-serializing them the way
    :func:`~repro.obs.exporters.export_jsonl` does gives back the same
    bytes."""
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if not isinstance(record, dict) or "span_id" not in record:
            raise ValueError(f"line {lineno} is not a span record")
        records.append(record)
    return records


def spans_to_records(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    """Live :class:`~repro.obs.span.Span` objects as records."""
    return [span.to_dict() for span in spans]


def _duration(record: Dict[str, Any]) -> float:
    start = record.get("start_virtual_ms") or 0.0
    end = record.get("end_virtual_ms")
    if end is None:
        return 0.0
    return max(0.0, end - start)


def _layer_of(name: str) -> str:
    prefix = name.split(":", 1)[0]
    return prefix if prefix in LAYERS else "other"


def _segments(records: Sequence[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """Split a concatenated export into per-tracer segments.

    Span ids are strictly increasing within one tracer's export; a
    repeated id therefore marks the start of another tracer's batch
    (e.g. three platforms appended to one file).  Parent links are only
    resolved within a segment, so id collisions across tracers can
    never mis-link trees.
    """
    segments: List[List[Dict[str, Any]]] = []
    current: List[Dict[str, Any]] = []
    seen: set = set()
    for record in records:
        span_id = record["span_id"]
        if span_id in seen:
            segments.append(current)
            current = []
            seen = set()
        seen.add(span_id)
        current.append(record)
    if current:
        segments.append(current)
    return segments


# ---------------------------------------------------------------------------
# The profile model
# ---------------------------------------------------------------------------

class OperationProfile:
    """Aggregated per-layer accounting for one operation × platform."""

    __slots__ = (
        "operation", "platform", "invocations", "errors",
        "layer_self_ms", "layer_spans", "total_ms", "latencies",
    )

    def __init__(self, operation: str, platform: str) -> None:
        self.operation = operation
        self.platform = platform
        self.invocations = 0
        self.errors = 0
        self.layer_self_ms: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.layer_spans: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.total_ms = 0.0
        #: Every folded tree total, in fold order (empty on a profile
        #: loaded with :meth:`OverheadProfile.from_dict`).
        self.latencies: List[float] = []

    @property
    def native_ms(self) -> float:
        """Total substrate (simulated native) self-time."""
        return self.layer_self_ms.get("substrate", 0.0)

    @property
    def middleware_ms(self) -> float:
        """Total self-time of every non-substrate layer: the Figure-10
        overhead the proxy adds on top of the native call."""
        return sum(
            ms for layer, ms in self.layer_self_ms.items() if layer != "substrate"
        )

    def per_invocation(self, layer: str) -> float:
        """Mean self-time of one layer per invocation."""
        if not self.invocations:
            return 0.0
        return self.layer_self_ms.get(layer, 0.0) / self.invocations

    def latency_ms(self) -> Dict[str, float]:
        """Mean, max and exact p50/p95/p99 of the tree totals (all 0.0
        on a loaded profile, which keeps no totals)."""
        ordered = sorted(self.latencies)
        return {
            "mean": self.total_ms / len(ordered) if ordered else 0.0,
            "max": ordered[-1] if ordered else 0.0,
            **{
                quantile_label(q): nearest_rank(ordered, q)
                for q in DEFAULT_QUANTILES
            },
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "operation": self.operation,
            "platform": self.platform,
            "invocations": self.invocations,
            "errors": self.errors,
            "layers": {
                layer: {
                    "self_ms": round(self.layer_self_ms[layer], 6),
                    "spans": self.layer_spans[layer],
                }
                for layer in sorted(self.layer_self_ms)
            },
            "native_ms": round(self.native_ms, 6),
            "middleware_ms": round(self.middleware_ms, 6),
            "total_ms": round(self.total_ms, 6),
            "latency_ms": {
                label: round(value, 6)
                for label, value in self.latency_ms().items()
            },
        }


class OverheadProfile:
    """The full Figure-10 decomposition, derived from traces."""

    def __init__(self) -> None:
        self.operations: Dict[Tuple[str, str], OperationProfile] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[Dict[str, Any]]) -> "OverheadProfile":
        profile = cls()
        for segment in _segments(records):
            profile._fold_segment(segment)
        return profile

    @classmethod
    def from_jsonl(cls, text: str) -> "OverheadProfile":
        return cls.from_records(parse_jsonl(text))

    @classmethod
    def from_spans(cls, spans: Iterable[Span]) -> "OverheadProfile":
        return cls.from_records(spans_to_records(spans))

    def _fold_segment(self, segment: Sequence[Dict[str, Any]]) -> None:
        known = {record["span_id"] for record in segment}
        children: Dict[int, List[Dict[str, Any]]] = {}
        roots: List[Dict[str, Any]] = []
        for record in segment:
            parent = record.get("parent_id")
            if parent is not None and parent in known:
                children.setdefault(parent, []).append(record)
            else:
                # Unknown parents happen on partial/filtered exports;
                # treat those spans as roots, like the tree renderer.
                roots.append(record)
        for root in roots:
            self._fold_invocation_tree(root, children)

    def _find_anchor(
        self, record: Dict[str, Any], children: Dict[int, List[Dict[str, Any]]]
    ) -> Optional[Dict[str, Any]]:
        """The invocation anchor: the topmost ``dispatch:*`` span (BFS).

        Every public operation opens a dispatch span, so the topmost
        ``binding:*`` span anchors only trees whose dispatch span is
        missing from the export (partial or filtered exports).
        """
        fallback: Optional[Dict[str, Any]] = None
        frontier = [record]
        while frontier:
            nxt: List[Dict[str, Any]] = []
            for entry in frontier:
                if entry["name"].startswith("dispatch:"):
                    return entry
                if fallback is None and entry["name"].startswith("binding:"):
                    fallback = entry
                nxt.extend(children.get(entry["span_id"], []))
            frontier = nxt
        return fallback

    def _fold_invocation_tree(
        self, root: Dict[str, Any], children: Dict[int, List[Dict[str, Any]]]
    ) -> None:
        anchor = self._find_anchor(root, children)
        if anchor is None:
            return  # not an invocation tree (setup spans, bare substrate, …)
        operation = anchor["name"].split(":", 1)[1]
        platform = (anchor.get("attributes") or {}).get("platform", "unknown")
        key = (operation, platform)
        entry = self.operations.get(key)
        if entry is None:
            entry = self.operations[key] = OperationProfile(operation, platform)

        entry.invocations += 1
        if anchor.get("status") != "ok":
            entry.errors += 1
        # On the WebView path the root is the bridge crossing and the
        # dispatch span sits beneath it — bill the whole tree, root
        # included, to the dispatched operation.
        tree_total = float(_duration(root))
        entry.total_ms += tree_total
        entry.latencies.append(tree_total)

        stack = [root]
        while stack:
            record = stack.pop()
            kids = children.get(record["span_id"], [])
            self_ms = _duration(record) - sum(_duration(kid) for kid in kids)
            layer = _layer_of(record["name"])
            entry.layer_self_ms[layer] = (
                entry.layer_self_ms.get(layer, 0.0) + max(0.0, self_ms)
            )
            entry.layer_spans[layer] = entry.layer_spans.get(layer, 0) + 1
            stack.extend(kids)

    # -- reading -------------------------------------------------------------

    def sorted_operations(self) -> List[OperationProfile]:
        return [
            self.operations[key] for key in sorted(self.operations)
        ]

    def to_dict(self) -> Dict[str, Any]:
        operations = [entry.to_dict() for entry in self.sorted_operations()]
        return {
            "schema": PROFILE_SCHEMA,
            "time": "virtual",
            "operations": operations,
            "totals": {
                "invocations": sum(e.invocations for e in self.operations.values()),
                "errors": sum(e.errors for e in self.operations.values()),
                "native_ms": round(
                    sum(e.native_ms for e in self.operations.values()), 6
                ),
                "middleware_ms": round(
                    sum(e.middleware_ms for e in self.operations.values()), 6
                ),
            },
        }

    def to_json(self) -> str:
        """Deterministic serialized form (sorted keys, 6-dp rounding)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OverheadProfile":
        """Rehydrate a saved profile (layer totals and counts only; the
        tree totals behind the latency fields are not saved).  A document
        folded in any time domain but ``virtual`` is rejected, so the
        regression gate never compares layers across domains."""
        if payload.get("schema") != PROFILE_SCHEMA:
            raise ValueError(f"not a {PROFILE_SCHEMA} document")
        time = payload.get("time", "virtual")
        if time != "virtual":
            raise ValueError(f"profile time {time!r} is not 'virtual'")
        profile = cls()
        for item in payload.get("operations", []):
            entry = OperationProfile(item["operation"], item["platform"])
            entry.invocations = item.get("invocations", 0)
            entry.errors = item.get("errors", 0)
            entry.total_ms = item.get("total_ms", 0.0)
            for layer, values in item.get("layers", {}).items():
                entry.layer_self_ms[layer] = values.get("self_ms", 0.0)
                entry.layer_spans[layer] = values.get("spans", 0)
            profile.operations[(entry.operation, entry.platform)] = entry
        return profile


# ---------------------------------------------------------------------------
# Views: table, collapsed stacks, top-N
# ---------------------------------------------------------------------------

def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render(cells: List[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [render(headers), render(["-" * width for width in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def render_profile_text(profile: OverheadProfile) -> str:
    """The Figure-10 view: per-invocation layer self-times (ms) per
    operation × platform, middleware vs native."""
    headers = (
        ["operation", "platform", "n"]
        + list(LAYERS)
        + ["middleware", "native", "p50", "p95", "p99"]
    )
    rows = []
    for entry in profile.sorted_operations():
        n = entry.invocations or 1
        latency = entry.latency_ms()
        rows.append(
            [entry.operation, entry.platform, str(entry.invocations)]
            + [f"{entry.per_invocation(layer):.3f}" for layer in LAYERS]
            + [
                f"{entry.middleware_ms / n:.3f}",
                f"{entry.native_ms / n:.3f}",
                f"{latency['p50']:.3f}",
                f"{latency['p95']:.3f}",
                f"{latency['p99']:.3f}",
            ]
        )
    if not rows:
        return "(no dispatch trees in trace)"
    return _table(headers, rows)


def collapsed_stacks(records: Sequence[Dict[str, Any]]) -> str:
    """Flamegraph collapsed-stack format: ``a;b;c <self-µs>`` per line.

    Weights are exclusive virtual self-time in integer microseconds,
    aggregated over identical stacks and emitted sorted, so the output
    is deterministic and feeds ``flamegraph.pl`` (or speedscope)
    directly.
    """
    totals: Dict[str, int] = {}
    for segment in _segments(records):
        by_id = {record["span_id"]: record for record in segment}
        children: Dict[int, List[Dict[str, Any]]] = {}
        for record in segment:
            parent = record.get("parent_id")
            if parent is not None and parent in by_id:
                children.setdefault(parent, []).append(record)

        def stack_of(record: Dict[str, Any]) -> str:
            parts = [record["name"]]
            cursor = record
            while True:
                parent = cursor.get("parent_id")
                if parent is None or parent not in by_id:
                    break
                cursor = by_id[parent]
                parts.append(cursor["name"])
            return ";".join(reversed(parts))

        for record in segment:
            kids = children.get(record["span_id"], [])
            self_ms = _duration(record) - sum(_duration(kid) for kid in kids)
            weight = int(round(max(0.0, self_ms) * 1_000.0))
            if weight <= 0:
                continue
            stack = stack_of(record)
            totals[stack] = totals.get(stack, 0) + weight
    return "\n".join(f"{stack} {weight}" for stack, weight in sorted(totals.items()))


def top_spans_text(records: Sequence[Dict[str, Any]], n: int = 10) -> str:
    """Top-N span names by aggregate exclusive self-time."""
    totals: Dict[str, Tuple[float, int]] = {}
    for segment in _segments(records):
        known = {record["span_id"] for record in segment}
        children: Dict[int, List[Dict[str, Any]]] = {}
        for record in segment:
            parent = record.get("parent_id")
            if parent is not None and parent in known:
                children.setdefault(parent, []).append(record)
        for record in segment:
            kids = children.get(record["span_id"], [])
            self_ms = max(
                0.0, _duration(record) - sum(_duration(kid) for kid in kids)
            )
            total, count = totals.get(record["name"], (0.0, 0))
            totals[record["name"]] = (total + self_ms, count + 1)

    grand_total = sum(total for total, _ in totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda item: (-item[1][0], item[0]))[:n]
    headers = ["span", "self_ms", "spans", "self%"]
    rows = [
        [name, f"{total:.3f}", str(count), f"{100.0 * total / grand_total:.1f}"]
        for name, (total, count) in ranked
    ]
    return _table(headers, rows)
