"""Cross-region causal graph analytics over exported traces.

``python -m repro.obs causal TRACE`` is the one cross-region analyzer:
it stitches the distributed tier's per-hop spans into one
happens-before DAG and folds every distributed-tier count from the
same pass:

* **Graph** — every span is a node; edges are parent→child span links
  plus the cross-region ``causal.origin`` references stamped on
  ``replicate:`` / ``invalidate:`` spans and ``gossip.merge`` events
  (each pointing back at the originating ``write:<table>`` span).  The
  report checks the graph is acyclic — a cycle means a hop claimed an
  origin that itself descends from the hop, i.e. causality is broken.
  Span refs are ``trace_id:span_id`` per tracer, so a node is keyed by
  ``(source, ref)`` and a ``causal.origin`` resolves within the source
  of the span that carries it (fleet pipeline exports tag each span
  with its tracer's ``source``).
* **Visibility latency** — for every write (identified by its
  ``table/key/version`` stamp) the virtual time each region first saw
  it, via replication apply or gossip merge; folded into per
  ``(table, region)`` exact percentiles and per-write convergence windows
  whose sorted visibility steps tile the window exactly.
* **Saga decomposition** — each ``saga:`` span tree split into step
  time, compensation time and replication wait (how long the saga's
  own writes took to reach their last region), so "where did the saga
  go" has a cross-region answer.
* **Audit results** — every ``causal.violation`` event found in the
  trace, plus dedup-chain joins from the ``chain`` tags on
  ``distrib.dedup`` events.
* **Tier tables** — replication applies with their ``lag_ms`` per
  ``table/region`` (read off the ``replicate:`` span itself, so sampled
  exports that dropped the originating write still count), gossip
  sweeps and merges per table, partition cuts and heals per pair,
  dedup suppressions per store and per site, and completed /
  compensated / failed-step counts per saga.

Everything is recomputed from the trace alone and exported as
deterministic JSON (sorted keys, rounded floats): two identically
seeded runs produce byte-identical reports.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.metrics import DEFAULT_QUANTILES, nearest_rank, quantile_label

__all__ = ["CAUSAL_SCHEMA", "CausalReport", "render_causal_text"]

CAUSAL_SCHEMA = "repro.obs.causal/v1"

#: A graph node key: ``(source, "trace_id:span_id")``.
Ref = Tuple[Optional[str], str]

#: Saga lifecycle event → its per-saga outcome counter.
_SAGA_OUTCOMES = {
    "saga.completed": "completed",
    "saga.compensated": "compensated",
    "saga.step.failed": "failed_steps",
}


class _Write:
    """One replicated write reassembled from its ``write:`` span."""

    __slots__ = ("table", "key", "version", "region", "t_ms", "visible")

    def __init__(
        self, table: str, key: str, version: str, region: str, t_ms: float,
    ) -> None:
        self.table = table
        self.key = key
        self.version = version
        self.region = region
        self.t_ms = t_ms
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
        #: span ref → span name.
        self.nodes: Dict[Ref, str] = {}
        #: (src ref, dst ref, kind) — ``child`` for span parentage,
        #: ``replicate`` / ``gossip`` / ``invalidate`` for cross-region
        #: causal references.
        self.edges: List[Tuple[Ref, Ref, str]] = []
        self.acyclic = True
        #: write label → :class:`_Write`.
        self.writes: Dict[str, _Write] = {}
        #: "table/region" → visibility lag of every write the region
        #: saw, in the order the regions first saw them.
        self.visibility: Dict[str, List[float]] = {}
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
        #: "table/region" → ``lag_ms`` of every replication apply.
        self.replication: Dict[str, List[float]] = {}
        #: table → {"sweeps": n, "merges": n}.
        self.gossip: Dict[str, Dict[str, int]] = {}
        #: partition pair → {"cuts": n, "heals": n}.
        self.partitions: Dict[str, Dict[str, int]] = {}
        #: dedup store label / site → suppression count.
        self.dedup_by_store: Dict[str, int] = {}
        self.dedup_by_site: Dict[str, int] = {}
        #: saga name → {"completed", "compensated", "failed_steps"} counts.
        self.saga_outcomes: Dict[str, Dict[str, int]] = {}

    # -- folding --------------------------------------------------------------

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "CausalReport":
        report = cls()
        children: Dict[Ref, List[Dict[str, Any]]] = {}
        for record in records:
            ref = _ref(record)
            report.nodes[ref] = record.get("name") or ""
            parent_id = record.get("parent_id")
            parent = _ref(record, f"{record.get('trace_id')}:{parent_id}")
            if parent_id is not None:
                report.edges.append((parent, ref, "child"))
            children.setdefault(parent, []).append(record)
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
        suffix = name.partition(":")[2]
        table = str(attributes.get("table", suffix))
        if name.startswith("write:"):
            _bump(self.hops, "write")
            write = _Write(
                table,
                str(attributes.get("key", "")),
                str(attributes.get("version", "")),
                str(region or "unknown"),
                float(record.get("start_virtual_ms") or 0.0),
            )
            self.writes.setdefault(write.label, write)
        elif name.startswith("replicate:"):
            _bump(self.hops, "replicate")
            lag_ms = attributes.get("lag_ms")
            self.replication.setdefault(
                f"{table}/{attributes.get('region', 'unknown')}", []
            ).append(float(lag_ms) if lag_ms is not None else 0.0)
            self._fold_visibility(record, attributes, via="replicate")
        elif name.startswith("gossip:"):
            _bump(self.hops, "gossip_sweep")
            entry = self.gossip.setdefault(table, {"sweeps": 0, "merges": 0})
            entry["sweeps"] += 1
            entry["merges"] += int(attributes.get("merges", 0) or 0)
        elif name.startswith("partition:"):
            entry = self.partitions.setdefault(suffix, {"cuts": 0, "heals": 0})
            entry["heals" if attributes.get("event") == "heal" else "cuts"] += 1
        elif name.startswith("saga:"):
            self._saga_outcome(str(attributes.get("saga", suffix)))
        elif name.startswith("invalidate:"):
            _bump(self.hops, "invalidate")
            origin_ref = attributes.get("causal.origin")
            if origin_ref:
                self.edges.append((_ref(record, origin_ref), ref, "invalidate"))
        elif name.startswith("flush:"):
            _bump(self.hops, "flush")
        elif name == "notify.drain":
            _bump(self.hops, "notify.drain")
        for event in record.get("events") or []:
            self._fold_event(record, event)

    def _fold_event(
        self, record: Dict[str, Any], event: Dict[str, Any]
    ) -> None:
        event_name = event.get("name")
        attributes = event.get("attributes") or {}
        if event_name == "gossip.merge":
            _bump(self.hops, "gossip")
            self._fold_visibility_attrs(
                record, attributes, via="gossip",
                t_ms=float(event.get("t_virtual_ms") or 0.0),
            )
        elif event_name == "causal.violation":
            violation = {"t_ms": event.get("t_virtual_ms")}
            violation.update(
                {key: attributes[key] for key in sorted(attributes)}
            )
            self.violations.append(violation)
        elif event_name == "distrib.dedup":
            _bump(self.hops, "dedup")
            _bump(self.dedup_by_store, str(attributes.get("store", "unknown")))
            _bump(self.dedup_by_site, str(attributes.get("site", "unknown")))
            chain = attributes.get("chain")
            if chain:
                _bump(self.dedup_chains, str(chain))
        elif event_name in _SAGA_OUTCOMES:
            saga = str(attributes.get("saga", "unknown"))
            self._saga_outcome(saga)[_SAGA_OUTCOMES[event_name]] += 1

    def _fold_visibility(
        self, record: Dict[str, Any], attributes: Dict[str, Any], *, via: str
    ) -> None:
        t_ms = float(
            record.get("end_virtual_ms")
            if record.get("end_virtual_ms") is not None
            else record.get("start_virtual_ms") or 0.0
        )
        self._fold_visibility_attrs(record, attributes, via=via, t_ms=t_ms)

    def _fold_visibility_attrs(
        self,
        record: Dict[str, Any],
        attributes: Dict[str, Any],
        *,
        via: str,
        t_ms: float,
    ) -> None:
        origin_ref = attributes.get("causal.origin")
        if origin_ref:
            self.edges.append((_ref(record, origin_ref), _ref(record), via))
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
            self.visibility.setdefault(f"{table}/{region}", []).append(
                t_ms - write.t_ms
            )

    def _saga_outcome(self, saga: str) -> Dict[str, int]:
        return self.saga_outcomes.setdefault(
            saga, {"completed": 0, "compensated": 0, "failed_steps": 0}
        )

    def _check_acyclic(self) -> None:
        """Kahn's algorithm over the stitched graph."""
        indegree: Dict[Ref, int] = {ref: 0 for ref in self.nodes}
        outgoing: Dict[Ref, List[Ref]] = {}
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
        children: Dict[Ref, List[Dict[str, Any]]],
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
                stack.extend(children.get(_ref(current), ()))
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
                key: {**_lag_stats(lags), **_exact_percentiles(lags)}
                for key, lags in sorted(self.visibility.items())
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
            "replication": {
                key: _lag_stats(lags)
                for key, lags in sorted(self.replication.items())
            },
            "gossip": _sorted_tables(self.gossip),
            "partitions": _sorted_tables(self.partitions),
            "dedup_by_store": dict(sorted(self.dedup_by_store.items())),
            "dedup_by_site": dict(sorted(self.dedup_by_site.items())),
            "saga_outcomes": _sorted_tables(self.saga_outcomes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _ref(record: Dict[str, Any], ref: Any = None) -> Ref:
    """``record``'s node key or, given a ``trace_id:span_id`` ``ref``,
    the key of that span in ``record``'s source."""
    if ref is None:
        ref = f"{record.get('trace_id')}:{record.get('span_id')}"
    return (record.get("source"), str(ref))


def _bump(table: Dict[str, int], key: str) -> None:
    table[key] = table.get(key, 0) + 1


def _sorted_tables(
    tables: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    return {key: dict(entry) for key, entry in sorted(tables.items())}


def _lag_stats(lags: List[float]) -> Dict[str, Any]:
    """Count, mean and max of a non-empty lag list.

    The mean adds the lags up in observation order with a loop, not
    ``sum()``: since Python 3.12 ``sum()`` of floats is compensated and
    can differ in the last bit, which would tie the report's bytes to
    the interpreter.
    """
    total = 0.0
    for lag in lags:
        total += lag
    return {
        "count": len(lags),
        "mean_ms": round(total / len(lags), 6),
        "max_ms": round(max(lags), 6),
    }


def _exact_percentiles(lags: List[float]) -> Dict[str, float]:
    """``{"p50_ms": ..., "p95_ms": ..., "p99_ms": ...}``, nearest rank."""
    ordered = sorted(lags)
    return {
        f"{quantile_label(q)}_ms": round(nearest_rank(ordered, q), 6)
        for q in DEFAULT_QUANTILES
    }


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
    for title, rows in (
        ("replication applies (table/region)", data["replication"]),
        ("gossip", data["gossip"]),
        ("partitions", data["partitions"]),
        ("saga outcomes", data["saga_outcomes"]),
    ):
        if rows:
            lines.append(f"  {title}:")
            for key, entry in rows.items():
                fields = " ".join(f"{name}={value}" for name, value in entry.items())
                lines.append(f"    {key:<28} {fields}")
    for label in ("store", "site"):
        counts = data[f"dedup_by_{label}"]
        if counts:
            pairs = ", ".join(f"{key}={count}" for key, count in counts.items())
            lines.append(f"  dedup by {label}: {pairs}")
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
