"""The flight recorder: a near-zero-cost ring buffer of recent activity.

Post-hoc trace exports answer "what happened over the whole run"; an
operator debugging a crash wants "what happened in the moments *before*
it".  The :class:`FlightRecorder` shadows one or more tracers (span
sinks), the time-series sampler (sample sinks) and the runtime's own
incident notes into small bounded ring buffers, and **dumps** them —
spans, events and metric samples, newest last — when something goes
wrong:

* a cooperative task crashes (scheduler crash isolation),
* a shard queue sheds a burst of requests,
* a circuit breaker opens,
* an SLO enters breach.

Each trigger site calls :meth:`trigger`; a per-reason cooldown collapses
a burst of identical incidents (sixty sheds in one blackout) into one
dump with a ``suppressed`` count, which is what keeps the recorder
near-zero-cost even mid-incident.

Determinism: everything is stamped from the virtual clock; ring
contents are a pure function of the seeded run, so
:meth:`to_json` is byte-identical across identically-seeded runs.
"""

from __future__ import annotations

import collections
import json
from typing import Any, Deque, Dict, List, Optional

from repro.obs.span import Span, _clean_attributes

FLIGHT_SCHEMA = "repro.obs.flight/v1"

#: Bound of each recent-history ring (spans, events, metric samples).
RING_CAPACITY = 128

#: How many dumps are retained (oldest evicted; ``sequence`` numbers
#: stay monotonic so consumers can detect eviction).
DUMP_CAPACITY = 8

#: Minimum virtual time between two dumps for the *same reason*;
#: suppressed triggers are counted on the retained dump.
COOLDOWN_MS = 1_000.0


class FlightRecorder:
    """Bounded recent-history buffers plus incident-triggered dumps.

    ``clock`` is the virtual clock stamping notes and dumps; it may be
    bound later (:meth:`bind_clock`).
    """

    def __init__(self, *, clock=None) -> None:
        self._clock = clock
        self._spans: Deque[Dict[str, Any]] = collections.deque(maxlen=RING_CAPACITY)
        self._events: Deque[Dict[str, Any]] = collections.deque(maxlen=RING_CAPACITY)
        self._samples: Deque[Dict[str, Any]] = collections.deque(maxlen=RING_CAPACITY)
        #: Retained dumps, oldest first (see :data:`DUMP_CAPACITY`).
        self.dumps: List[Dict[str, Any]] = []
        #: Total dumps ever taken (monotonic; survives eviction).
        self.triggered = 0
        #: reason -> virtual time of its most recent dump.
        self._last_dump_ms: Dict[str, float] = {}

    def bind_clock(self, clock) -> None:
        self._clock = clock

    def _now(self) -> float:
        return self._clock.now_ms if self._clock is not None else 0.0

    # -- feeding -------------------------------------------------------------

    def attach(self, tracer, *, source: Optional[str] = None) -> None:
        """Shadow ``tracer``: every span it finishes (and that span's
        events) lands in the recent-history rings.  ``source`` tags the
        records when several tracers share one recorder (a fleet's
        agents) — span ids are only unique per tracer."""
        tracer.add_sink(lambda span: self.record_span(span, source=source))

    def record_span(self, span: Span, *, source: Optional[str] = None) -> None:
        record = span.to_dict()
        if source is not None:
            record["source"] = source
        self._spans.append(record)
        for event in span.events:
            entry = dict(event.to_dict())
            entry["span_id"] = span.span_id
            if source is not None:
                entry["source"] = source
            self._events.append(entry)

    def note(self, name: str, **attributes: Any) -> None:
        """Record a standalone incident event (shed, crash, breach) at
        the current virtual instant."""
        self._events.append(
            {
                "attributes": _clean_attributes(attributes),
                "name": name,
                "span_id": None,
                "t_virtual_ms": round(self._now(), 6),
            }
        )

    def record_sample(
        self, metric: str, labels: Dict[str, str], t_ms: float, value: float
    ) -> None:
        """Sample-sink form matching :meth:`TimeSeriesSampler.add_sink`."""
        self._samples.append(
            {
                "labels": dict(sorted(labels.items())),
                "metric": metric,
                "t_virtual_ms": round(t_ms, 6),
                "value": round(value, 6),
            }
        )

    # -- dumping -------------------------------------------------------------

    def trigger(self, reason: str, **attributes: Any) -> Optional[Dict[str, Any]]:
        """Capture the ring contents as one dump.

        Returns the dump, or ``None`` when a dump for the same reason
        fired within :data:`COOLDOWN_MS` (the retained dump's ``suppressed``
        count is incremented instead — one dump per burst).
        """
        now = self._now()
        last = self._last_dump_ms.get(reason)
        if last is not None and now - last < COOLDOWN_MS:
            for dump in reversed(self.dumps):
                if dump["reason"] == reason:
                    dump["suppressed"] += 1
                    break
            return None
        self._last_dump_ms[reason] = now
        self.triggered += 1
        dump: Dict[str, Any] = {
            "attributes": _clean_attributes(attributes),
            "events": list(self._events),
            "reason": reason,
            "samples": list(self._samples),
            "sequence": self.triggered,
            "spans": list(self._spans),
            "suppressed": 0,
            "t_virtual_ms": round(now, 6),
        }
        self.dumps.append(dump)
        if len(self.dumps) > DUMP_CAPACITY:
            del self.dumps[: len(self.dumps) - DUMP_CAPACITY]
        return dump

    # -- reading -------------------------------------------------------------

    @property
    def last_dump(self) -> Optional[Dict[str, Any]]:
        return self.dumps[-1] if self.dumps else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": FLIGHT_SCHEMA,
            "cooldown_ms": round(COOLDOWN_MS, 6),
            "dumps": list(self.dumps),
            "triggered": self.triggered,
        }

    def to_json(self) -> str:
        """Deterministic serialized form (sorted keys)."""
        return (
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        )

    @classmethod
    def parse(cls, text: str) -> Dict[str, Any]:
        """Validate and return a saved flight document (CLI entry)."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("schema") != FLIGHT_SCHEMA:
            raise ValueError(f"not a {FLIGHT_SCHEMA} document")
        return payload


def render_flight_text(payload: Dict[str, Any]) -> str:
    """Human-readable view of a flight document (live ``to_dict`` or a
    file reloaded via :meth:`FlightRecorder.parse`)."""
    dumps = payload.get("dumps", [])
    lines = [
        f"flight recorder: {payload.get('triggered', 0)} dump(s) taken, "
        f"{len(dumps)} retained"
    ]
    for dump in dumps:
        attrs = ", ".join(
            f"{key}={value}"
            for key, value in sorted((dump.get("attributes") or {}).items())
        )
        suffix = f" ({attrs})" if attrs else ""
        suppressed = dump.get("suppressed", 0)
        burst = f" +{suppressed} suppressed" if suppressed else ""
        lines.append(
            f"dump #{dump['sequence']}: {dump['reason']} "
            f"@{dump['t_virtual_ms']:.1f}ms{suffix}{burst}"
        )
        spans = dump.get("spans", [])
        events = dump.get("events", [])
        samples = dump.get("samples", [])
        lines.append(
            f"  buffered: {len(spans)} span(s), {len(events)} event(s), "
            f"{len(samples)} sample(s)"
        )
        for record in spans:
            source = record.get("source")
            tag = f" [{source}]" if source else ""
            start = record.get("start_virtual_ms", 0.0)
            end = record.get("end_virtual_ms")
            duration = 0.0 if end is None else end - start
            status = record.get("status", "ok")
            verdict = "" if status == "ok" else f" [{status}: {record.get('error')}]"
            lines.append(
                f"    span {record['span_id']}{tag} {record['name']} "
                f"@{start:.1f}ms +{duration:.1f}ms{verdict}"
            )
        for event in events:
            source = event.get("source")
            tag = f" [{source}]" if source else ""
            attrs = ", ".join(
                f"{key}={value}"
                for key, value in sorted((event.get("attributes") or {}).items())
            )
            suffix = f" ({attrs})" if attrs else ""
            lines.append(
                f"    event {event['name']}{tag} "
                f"@{event['t_virtual_ms']:.1f}ms{suffix}"
            )
        for sample in samples:
            labels = ",".join(
                f"{key}={value}"
                for key, value in sorted((sample.get("labels") or {}).items())
            )
            series = (
                f"{sample['metric']}{{{labels}}}" if labels else sample["metric"]
            )
            lines.append(
                f"    sample {series}={sample['value']:g} "
                f"@{sample['t_virtual_ms']:.1f}ms"
            )
    return "\n".join(lines)
