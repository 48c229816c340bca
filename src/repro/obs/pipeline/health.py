"""The fleet health console: one report fusing every analysis plane.

``python -m repro.obs health TRACE`` replays an exported trace through
a fresh :class:`~repro.obs.pipeline.pipeline.TelemetryPipeline` and
folds the results together with the admission report, the causal audit,
optional SLO evaluation and an optional flight-recorder document into a
single text/JSON answer to "is this run healthy?".

The ``--gate`` contract (CI's telemetry health gate) fails the report
when telemetry integrity was compromised or promises were broken:

* ``obs.dropped_spans`` > 0 — the retention ring evicted kept spans;
* ``obs.cardinality_overflow`` > 0 — a label or rollup key bound was
  hit and series collapsed into ``other=true``;
* tail misses > 0 — an anomalous trace was not retained (must never
  happen; structural invariant of the tail rules);
* the causal graph has a cycle or recorded ``causal.violation`` events;
* any evaluated SLO is in breach.

Captured anomalies (error traces, sheds, breaker opens) do **not** fail
the gate by themselves — capturing those is the pipeline doing its job.
``strict=True`` additionally fails on any anomalous trace at all, for
runs that are supposed to be perfectly clean.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.analyze.admission import AdmissionReport
from repro.obs.analyze.causal import CausalReport
from repro.obs.analyze.slo import SloEngine, SloSpec, SloStatus
from repro.obs.pipeline.config import PipelineConfig
from repro.obs.pipeline.pipeline import TelemetryPipeline

HEALTH_SCHEMA = "repro.obs.health/v1"


def _causal_summary(causal: CausalReport) -> Dict[str, Any]:
    return {
        "acyclic": causal.acyclic,
        "violations": len(causal.violations),
        "writes": len(causal.writes),
        "regions": sorted(causal.regions),
        "hops": dict(sorted(causal.hops.items())),
    }


def _flight_summary(payload: Dict[str, Any]) -> Dict[str, Any]:
    dumps = payload.get("dumps") or []
    reasons: Dict[str, int] = {}
    for dump in dumps:
        reason = str(dump.get("reason", "unknown"))
        reasons[reason] = reasons.get(reason, 0) + 1
    return {
        "triggered": payload.get("triggered", 0),
        "dumps": len(dumps),
        "reasons": dict(sorted(reasons.items())),
    }


class HealthReport:
    """The fused health document (see the module docstring)."""

    def __init__(
        self,
        *,
        telemetry: Dict[str, Any],
        admission: Optional[Dict[str, Any]] = None,
        slo: Optional[List[Dict[str, Any]]] = None,
        causal: Optional[Dict[str, Any]] = None,
        flight: Optional[Dict[str, Any]] = None,
        failures: Sequence[str] = (),
    ) -> None:
        self.telemetry = telemetry
        self.admission = admission
        self.slo = slo
        self.causal = causal
        self.flight = flight
        self.failures = list(failures)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        pipeline: TelemetryPipeline,
        *,
        admission: Optional[AdmissionReport] = None,
        causal: Optional[CausalReport] = None,
        slo_statuses: Optional[Sequence[SloStatus]] = None,
        flight_payload: Optional[Dict[str, Any]] = None,
        strict: bool = False,
    ) -> "HealthReport":
        accounting = pipeline.accounting()
        failures: List[str] = []
        if accounting["dropped_spans"]:
            failures.append(
                f"retention ring evicted {accounting['dropped_spans']} kept "
                f"span(s) (obs.dropped_spans) — raise span_capacity"
            )
        if accounting["cardinality_overflow"]:
            failures.append(
                f"{accounting['cardinality_overflow']} series collapsed into "
                f"other=true (obs.cardinality_overflow)"
            )
        if accounting["tail_misses"]:
            failures.append(
                f"{accounting['tail_misses']} anomalous trace(s) were not "
                f"retained (tail-rule miss)"
            )
        if causal is not None:
            if not causal.acyclic:
                failures.append("causal happens-before graph has a cycle")
            if causal.violations:
                failures.append(
                    f"{len(causal.violations)} causal.violation event(s) in trace"
                )
        breached = [
            status for status in (slo_statuses or []) if status.breached
        ]
        for status in breached:
            failures.append(
                f"SLO {status.spec.name} in breach: {'; '.join(status.reasons)}"
            )
        if strict and accounting["anomalous_traces"]:
            failures.append(
                f"strict: {accounting['anomalous_traces']} anomalous trace(s) "
                f"in a run expected clean"
            )
        return cls(
            telemetry=pipeline.to_dict(),
            admission=admission.to_dict() if admission is not None else None,
            slo=(
                [status.to_dict() for status in slo_statuses]
                if slo_statuses is not None
                else None
            ),
            causal=_causal_summary(causal) if causal is not None else None,
            flight=(
                _flight_summary(flight_payload)
                if flight_payload is not None
                else None
            ),
            failures=failures,
        )

    @classmethod
    def from_records(
        cls,
        records: List[Dict[str, Any]],
        *,
        config: Optional[PipelineConfig] = None,
        slo_specs: Iterable[SloSpec] = (),
        flight_payload: Optional[Dict[str, Any]] = None,
        strict: bool = False,
    ) -> "HealthReport":
        """Offline entry: replay exported span records through a fresh
        pipeline and fold in every analyzer the records can feed."""
        pipeline = TelemetryPipeline(config)
        pipeline.ingest_records(records)
        admission = AdmissionReport.from_records(records)
        causal = CausalReport.from_records(records)
        statuses: Optional[List[SloStatus]] = None
        specs = list(slo_specs)
        if specs:
            engine = SloEngine(specs)
            engine.ingest_records(records)
            now_ms = max(
                (record.get("end_virtual_ms") or 0.0 for record in records),
                default=0.0,
            )
            statuses = engine.evaluate(now_ms)
        return cls.build(
            pipeline,
            admission=admission,
            causal=causal,
            slo_statuses=statuses,
            flight_payload=flight_payload,
            strict=strict,
        )

    # -- reading -------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": HEALTH_SCHEMA,
            "healthy": self.healthy,
            "failures": list(self.failures),
            "telemetry": self.telemetry,
            "admission": self.admission,
            "slo": self.slo,
            "causal": self.causal,
            "flight": self.flight,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def render_health_text(report: HealthReport, *, top: int = 8) -> str:
    """The operator-facing console view."""
    accounting = report.telemetry.get("accounting", {})
    retention = report.telemetry.get("retention", {})
    rollups = report.telemetry.get("rollups", {})
    verdict = "HEALTHY" if report.healthy else "UNHEALTHY"
    lines = [
        f"telemetry health: {verdict}"
        + ("" if report.healthy else f" ({len(report.failures)} failure(s))")
    ]
    for failure in report.failures:
        lines.append(f"  ! {failure}")
    lines.append(
        "sampling: kept {kept}/{total} trace(s) "
        "(head {head}, anomalous {anom}, tail misses {miss})".format(
            kept=accounting.get("traces_kept", 0),
            total=accounting.get("traces_total", 0),
            head=accounting.get("head_kept", 0),
            anom=accounting.get("anomalous_traces", 0),
            miss=accounting.get("tail_misses", 0),
        )
    )
    lines.append(
        "retention: {retained}/{capacity} span(s) in ring, "
        "{dropped} dropped, {out} sampled out".format(
            retained=retention.get("retained", 0),
            capacity=retention.get("capacity", 0),
            dropped=retention.get("dropped", 0),
            out=accounting.get("sampled_out", 0),
        )
    )
    series = rollups.get("series") or []
    lines.append(
        "rollups: {n} series, {req} request(s), {err} error(s), "
        "{collapsed} collapsed observation(s)".format(
            n=len(series),
            req=rollups.get("requests", 0),
            err=rollups.get("errors", 0),
            collapsed=rollups.get("collapsed_observations", 0),
        )
    )
    ranked = sorted(series, key=lambda s: (-s["count"], str(s["labels"])))
    for entry in ranked[:top]:
        labels = entry["labels"]
        if labels.get("other") == "true":
            key = "(other)"
        else:
            key = (
                f"{labels.get('op')}@{labels.get('platform')}"
                f"/{labels.get('region')}"
            )
        percentiles = entry.get("percentiles", {})
        lines.append(
            f"  {key:<40} n={entry['count']:<6} err={entry['errors']:<4} "
            f"p50={percentiles.get('p50', 0.0):.1f}ms "
            f"p99={percentiles.get('p99', 0.0):.1f}ms "
            f"rate={entry.get('rate_per_s', 0.0):.2f}/s"
        )
    if len(ranked) > top:
        lines.append(f"  ... {len(ranked) - top} more series")
    if report.slo is not None:
        for status in report.slo:
            state = "BREACHED" if status.get("breached") else "ok"
            lines.append(
                f"slo: {status.get('slo'):<24} {state:<8} "
                f"attainment={status.get('attainment', 0.0):.4f} "
                f"(target {status.get('target_ratio')}) "
                f"errors={status.get('error_rate', 0.0):.4f} "
                f"over {status.get('window_count', 0)} call(s)"
            )
    if report.admission is not None:
        lines.append(
            "admission: {shed} shed, {throttled} throttled, "
            "{resizes} autoscaler resize(s)".format(
                shed=report.admission.get("shed_total", 0),
                throttled=report.admission.get("throttled_total", 0),
                resizes=len(report.admission.get("resizes") or []),
            )
        )
    if report.causal is not None:
        lines.append(
            "causal: {state}, {violations} violation(s), {writes} write(s) "
            "across {regions} region(s)".format(
                state="acyclic" if report.causal.get("acyclic") else "CYCLIC",
                violations=report.causal.get("violations", 0),
                writes=report.causal.get("writes", 0),
                regions=len(report.causal.get("regions") or []),
            )
        )
    if report.flight is not None:
        reasons = report.flight.get("reasons") or {}
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(reasons.items()))
        lines.append(
            f"flight: {report.flight.get('triggered', 0)} trigger(s), "
            f"{report.flight.get('dumps', 0)} dump(s) retained"
            + (f" ({rendered})" if rendered else "")
        )
    return "\n".join(lines)
