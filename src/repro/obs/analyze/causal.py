"""Cross-region causal graph analytics over exported traces.

``python -m repro.obs causal TRACE`` stitches the distributed tier's
per-hop spans into one happens-before DAG and answers the questions the
per-table aggregates (``repro.obs.analyze.distrib``) cannot:

* **Graph** — every span is a node; edges are parent→child span links
  plus the cross-region ``causal.origin`` references stamped on
  ``replicate:`` / ``invalidate:`` spans and ``gossip.merge`` events
  (each pointing back at the originating ``write:<table>`` span).  The
  report checks the graph is acyclic — a cycle means a hop claimed an
  origin that itself descends from the hop, i.e. causality is broken.
* **Visibility latency** — for every write (identified by its
  ``table/key/version`` stamp) the virtual time each region first saw
  it, via replication apply or gossip merge; folded into per
  ``(table, region)`` P² percentiles and per-write convergence windows
  whose sorted visibility steps tile the window exactly.
* **Saga decomposition** — each ``saga:`` span tree split into step
  time, compensation time and replication wait (how long the saga's
  own writes took to reach their last region), so "where did the saga
  go" has a cross-region answer.
* **Audit results** — every ``causal.violation`` event found in the
  trace, plus dedup-chain joins from the ``chain`` tags on
  ``distrib.dedup`` events.

Everything is recomputed from the trace alone and exported as
deterministic JSON (sorted keys, rounded floats): two identically
seeded runs produce byte-identical reports.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.quantiles import StreamingPercentiles

__all__ = ["CAUSAL_SCHEMA", "CausalReport", "render_causal_text"]

CAUSAL_SCHEMA = "repro.obs.causal/v1"

#: Span-name prefixes that mark distributed-tier hops.
_HOP_PREFIXES = (
    "write:", "replicate:", "gossip:", "invalidate:", "flush:",
)


class _Write:
    """One replicated write reassembled from its ``write:`` span."""

    __slots__ = ("table", "key", "version", "region", "t_ms", "ref", "visible")

    def __init__(
        self, table: str, key: str, version: str, region: str,
        t_ms: float, ref: Optional[str],
    ) -> None:
        self.table = table
        self.key = key
        self.version = version
        self.region = region
        self.t_ms = t_ms
        self.ref = ref
        #: region → (first-visibility virtual ms, via) with via one of
        #: ``origin`` / ``replicate`` / ``gossip``.
        self.visible: Dict[str, Tuple[float, str]] = {region: (t_ms, "origin")}

    def saw(self, region: str, t_ms: float, via: str) -> None:
        known = self.visible.get(region)
        if known is None or t_ms < known[0]:
            self.visible[region] = (t_ms, via)

    @property
    def label(self) -> str:
        return f"{self.table}/{self.key}@{self.version}"

    def steps(self) -> List[Dict[str, Any]]:
        """Visibility steps in arrival order; the deltas between
        consecutive steps tile ``[t_ms, last-visibility]`` exactly."""
        ordered = sorted(
            self.visible.items(), key=lambda item: (item[1][0], item[0])
        )
        steps = []
        previous = self.t_ms
        for region, (t_ms, via) in ordered:
            steps.append(
                {
                    "region": region,
                    "t_ms": round(t_ms, 6),
                    "delta_ms": round(t_ms - previous, 6),
                    "via": via,
                }
            )
            previous = t_ms
        return steps

    @property
    def window_ms(self) -> float:
        return max(t for t, _ in self.visible.values()) - self.t_ms


class CausalReport:
    """The cross-region happens-before graph folded from one trace."""

    def __init__(self) -> None:
        #: span ref (``trace_id:span_id``) → span name.
        self.nodes: Dict[str, str] = {}
        #: (src ref, dst ref, kind) — ``child`` for span parentage,
        #: ``replicate`` / ``gossip`` / ``invalidate`` for cross-region
        #: causal references.
        self.edges: List[Tuple[str, str, str]] = []
        self.acyclic = True
        #: write label → :class:`_Write`.
        self.writes: Dict[str, _Write] = {}
        #: "table/region" → streaming percentiles over visibility lag.
        self.visibility: Dict[str, StreamingPercentiles] = {}
        #: Regions observed anywhere in the trace.
        self.regions: Set[str] = set()
        #: hop kind → count (replicate/gossip/invalidate/flush/...).
        self.hops: Dict[str, int] = {}
        #: Saga decompositions, in span order.
        self.sagas: List[Dict[str, Any]] = []
        #: ``causal.violation`` events found in the trace.
        self.violations: List[Dict[str, Any]] = []
        #: chain tag → number of dedup suppressions joined to it.
        self.dedup_chains: Dict[str, int] = {}

    # -- folding --------------------------------------------------------------

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "CausalReport":
        report = cls()
        children: Dict[Tuple[int, Optional[int]], List[Dict[str, Any]]] = {}
        for record in records:
            ref = _ref(record)
            report.nodes[ref] = record.get("name") or ""
            parent_id = record.get("parent_id")
            if parent_id is not None:
                report.edges.append(
                    (f"{record.get('trace_id')}:{parent_id}", ref, "child")
                )
            children.setdefault(
                (record.get("trace_id"), parent_id), []
            ).append(record)
            report._fold(record)
        report._check_acyclic()
        report._fold_sagas(records, children)
        return report

    def _fold(self, record: Dict[str, Any]) -> None:
        name = record.get("name") or ""
        attributes = record.get("attributes") or {}
        ref = _ref(record)
        region = attributes.get("region")
        if region:
            self.regions.add(str(region))
        if name.startswith("write:"):
            self._bump_hop("write")
            write = _Write(
                str(attributes.get("table", name.split(":", 1)[1])),
                str(attributes.get("key", "")),
                str(attributes.get("version", "")),
                str(region or "unknown"),
                float(record.get("start_virtual_ms") or 0.0),
                ref,
            )
            self.writes.setdefault(write.label, write)
        elif name.startswith("replicate:"):
            self._bump_hop("replicate")
            self._fold_visibility(record, attributes, via="replicate")
        elif name.startswith("gossip:"):
            self._bump_hop("gossip_sweep")
        elif name.startswith("invalidate:"):
            self._bump_hop("invalidate")
            origin_ref = attributes.get("causal.origin")
            if origin_ref:
                self.edges.append((str(origin_ref), ref, "invalidate"))
        elif name.startswith("flush:"):
            self._bump_hop("flush")
        elif name == "notify.drain":
            self._bump_hop("notify.drain")
        for event in record.get("events") or []:
            self._fold_event(record, event)

    def _fold_event(
        self, record: Dict[str, Any], event: Dict[str, Any]
    ) -> None:
        event_name = event.get("name")
        attributes = event.get("attributes") or {}
        if event_name == "gossip.merge":
            self._bump_hop("gossip")
            sample = dict(attributes)
            sample["end_t"] = event.get("t_virtual_ms")
            self._fold_visibility_attrs(
                sample, _ref(record), via="gossip",
                t_ms=float(event.get("t_virtual_ms") or 0.0),
            )
        elif event_name == "causal.violation":
            violation = {"t_ms": event.get("t_virtual_ms")}
            violation.update(
                {key: attributes[key] for key in sorted(attributes)}
            )
            self.violations.append(violation)
        elif event_name == "distrib.dedup":
            self._bump_hop("dedup")
            chain = attributes.get("chain")
            if chain:
                chain = str(chain)
                self.dedup_chains[chain] = self.dedup_chains.get(chain, 0) + 1

    def _fold_visibility(
        self, record: Dict[str, Any], attributes: Dict[str, Any], *, via: str
    ) -> None:
        t_ms = float(
            record.get("end_virtual_ms")
            if record.get("end_virtual_ms") is not None
            else record.get("start_virtual_ms") or 0.0
        )
        self._fold_visibility_attrs(attributes, _ref(record), via=via, t_ms=t_ms)

    def _fold_visibility_attrs(
        self,
        attributes: Dict[str, Any],
        ref: str,
        *,
        via: str,
        t_ms: float,
    ) -> None:
        origin_ref = attributes.get("causal.origin")
        if origin_ref:
            self.edges.append((str(origin_ref), ref, via))
        region = str(attributes.get("region", "unknown"))
        self.regions.add(region)
        table = str(attributes.get("table", "unknown"))
        label = (
            f"{table}/{attributes.get('key', '')}@{attributes.get('version', '')}"
        )
        write = self.writes.get(label)
        if write is None:
            return
        before = write.visible.get(region)
        write.saw(region, t_ms, via)
        if before is None:
            lag_ms = t_ms - write.t_ms
            self.visibility.setdefault(
                f"{table}/{region}", StreamingPercentiles()
            ).observe(lag_ms)

    def _bump_hop(self, kind: str) -> None:
        self.hops[kind] = self.hops.get(kind, 0) + 1

    def _check_acyclic(self) -> None:
        """Kahn's algorithm over the stitched graph."""
        indegree: Dict[str, int] = {ref: 0 for ref in self.nodes}
        outgoing: Dict[str, List[str]] = {}
        for src, dst, _ in self.edges:
            if src not in indegree or dst not in indegree:
                continue  # reference into another export; not an edge here
            outgoing.setdefault(src, []).append(dst)
            indegree[dst] += 1
        queue = [ref for ref, degree in indegree.items() if degree == 0]
        visited = 0
        while queue:
            ref = queue.pop()
            visited += 1
            for dst in outgoing.get(ref, ()):
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    queue.append(dst)
        self.acyclic = visited == len(indegree)

    def _fold_sagas(
        self,
        records: List[Dict[str, Any]],
        children: Dict[Tuple[int, Optional[int]], List[Dict[str, Any]]],
    ) -> None:
        for record in records:
            name = record.get("name") or ""
            if not name.startswith("saga:"):
                continue
            attributes = record.get("attributes") or {}
            start = float(record.get("start_virtual_ms") or 0.0)
            end = record.get("end_virtual_ms")
            total = (float(end) - start) if end is not None else 0.0
            steps_ms = 0.0
            compensation_ms = 0.0
            step_count = 0
            replication_wait_ms = 0.0
            write_count = 0
            status = "pending"
            for event in record.get("events") or []:
                if event.get("name") == "saga.completed":
                    status = "completed"
                elif event.get("name") == "saga.compensated":
                    status = "compensated"
            stack = [record]
            while stack:
                current = stack.pop()
                stack.extend(
                    children.get(
                        (current.get("trace_id"), current.get("span_id")), ()
                    )
                )
                if current is record:
                    continue
                child_name = current.get("name") or ""
                child_end = current.get("end_virtual_ms")
                duration = (
                    float(child_end) - float(current.get("start_virtual_ms") or 0.0)
                    if child_end is not None
                    else 0.0
                )
                if child_name.startswith("saga.step:"):
                    steps_ms += duration
                    step_count += 1
                elif child_name.startswith("saga.compensate:"):
                    compensation_ms += duration
                elif child_name.startswith("write:"):
                    write_count += 1
                    child_attrs = current.get("attributes") or {}
                    label = (
                        f"{child_attrs.get('table', '')}/"
                        f"{child_attrs.get('key', '')}@"
                        f"{child_attrs.get('version', '')}"
                    )
                    write = self.writes.get(label)
                    if write is not None:
                        replication_wait_ms = max(
                            replication_wait_ms, write.window_ms
                        )
            self.sagas.append(
                {
                    "saga": str(attributes.get("saga", name.split(":", 1)[1])),
                    "saga_id": attributes.get("saga_id"),
                    "region": attributes.get("region"),
                    "chain": attributes.get("chain"),
                    "status": status,
                    "total_ms": round(total, 6),
                    "steps": step_count,
                    "steps_ms": round(steps_ms, 6),
                    "compensation_ms": round(compensation_ms, 6),
                    "writes": write_count,
                    "replication_wait_ms": round(replication_wait_ms, 6),
                }
            )

    # -- derived views --------------------------------------------------------

    @property
    def write_count(self) -> int:
        return len(self.writes)

    @property
    def converged_count(self) -> int:
        """Writes every observed region eventually saw."""
        if not self.regions:
            return 0
        return sum(
            1
            for write in self.writes.values()
            if self.regions <= set(write.visible)
        )

    def convergence_entries(self) -> List[Dict[str, Any]]:
        """Per-write convergence windows and their tiling steps, in
        write order (the in-memory view the property suite checks)."""
        return [
            {
                "write": write.label,
                "region": write.region,
                "t_ms": round(write.t_ms, 6),
                "window_ms": round(write.window_ms, 6),
                "steps": write.steps(),
            }
            for write in self.writes.values()
        ]

    def to_dict(self) -> Dict[str, Any]:
        entries = self.convergence_entries()
        windows = [entry["window_ms"] for entry in entries]
        slowest = sorted(
            entries, key=lambda entry: (-entry["window_ms"], entry["write"])
        )[:5]
        cross = sum(1 for _, _, kind in self.edges if kind != "child")
        return {
            "schema": CAUSAL_SCHEMA,
            "graph": {
                "nodes": len(self.nodes),
                "edges": len(self.edges),
                "cross_region_edges": cross,
                "acyclic": self.acyclic,
            },
            "hops": dict(sorted(self.hops.items())),
            "writes": self.write_count,
            "visibility": {
                key: _percentile_dict(stats)
                for key, stats in sorted(self.visibility.items())
            },
            "convergence": {
                "writes": len(entries),
                "converged": self.converged_count,
                "regions": sorted(self.regions),
                "mean_window_ms": round(
                    sum(windows) / len(windows), 6
                ) if windows else 0.0,
                "max_window_ms": round(max(windows), 6) if windows else 0.0,
                "slowest": slowest,
            },
            "sagas": self.sagas,
            "dedup_chains": dict(sorted(self.dedup_chains.items())),
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _ref(record: Dict[str, Any]) -> str:
    return f"{record.get('trace_id')}:{record.get('span_id')}"


def _percentile_dict(stats: StreamingPercentiles) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "count": stats.count,
        "mean_ms": round(stats.mean, 6),
        "max_ms": round(stats.max, 6),
    }
    for label, value in stats.as_dict().items():
        out[f"{label}_ms"] = round(value, 6)
    return out


def render_causal_text(report: CausalReport) -> str:
    """The operator-facing summary (``--format text``)."""
    data = report.to_dict()
    graph = data["graph"]
    lines = [
        f"causal graph: {graph['nodes']} nodes, {graph['edges']} edges "
        f"({graph['cross_region_edges']} cross-region), "
        f"{'acyclic' if graph['acyclic'] else 'CYCLE DETECTED'}"
    ]
    if data["hops"]:
        hops = ", ".join(
            f"{kind}={count}" for kind, count in data["hops"].items()
        )
        lines.append(f"  hops: {hops}")
    convergence = data["convergence"]
    lines.append(
        f"  writes: {data['writes']} "
        f"({convergence['converged']} fully visible in "
        f"{len(convergence['regions'])} region(s)); "
        f"window mean={convergence['mean_window_ms']:.1f}ms "
        f"max={convergence['max_window_ms']:.1f}ms"
    )
    if data["visibility"]:
        lines.append("  visibility lag (table/region):")
        for key, stats in data["visibility"].items():
            lines.append(
                f"    {key:<28} n={stats['count']:<5} "
                f"mean={stats['mean_ms']:.1f}ms p95={stats['p95_ms']:.1f}ms "
                f"max={stats['max_ms']:.1f}ms"
            )
    for entry in convergence["slowest"]:
        path = " -> ".join(
            f"{step['region']}(+{step['delta_ms']:.0f}ms,{step['via']})"
            for step in entry["steps"]
        )
        lines.append(f"    slow {entry['write']}: {path}")
    if data["sagas"]:
        lines.append("  sagas (step / compensation / replication wait):")
        for saga in data["sagas"]:
            lines.append(
                f"    {saga['saga']:<16} #{saga['saga_id']} {saga['status']:<12} "
                f"steps={saga['steps_ms']:.1f}ms "
                f"comp={saga['compensation_ms']:.1f}ms "
                f"repl={saga['replication_wait_ms']:.1f}ms"
            )
    if data["dedup_chains"]:
        lines.append(
            f"  dedup chains joined: {len(data['dedup_chains'])} "
            f"({sum(data['dedup_chains'].values())} suppression(s))"
        )
    if data["violations"]:
        lines.append(f"  VIOLATIONS: {len(data['violations'])}")
        for violation in data["violations"]:
            details = ", ".join(
                f"{key}={value}"
                for key, value in violation.items()
                if key not in ("kind", "t_ms")
            )
            lines.append(
                f"    {violation.get('kind')} @{violation.get('t_ms')}ms"
                + (f" ({details})" if details else "")
            )
    else:
        lines.append("  audit: clean (no causal violations)")
    return "\n".join(lines)
