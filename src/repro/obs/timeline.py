"""Per-shard Gantt timelines reconstructed from concurrent trace exports.

The dispatcher stamps every executed request with a ``queue:<op>`` span
carrying ``platform``, ``shard`` and ``wait_ms`` attributes; because the
span's virtual interval is the request's *lane residency*, the set of
queue spans **is** the shard schedule.  This module folds them back into
per-lane timelines:

* **busy segments** — the lane executing a request (serial per lane, so
  segments within one lane never overlap — asserted by the property
  suite);
* **queue-wait intervals** — ``[start − wait_ms, start)`` per request,
  i.e. time the request sat admitted behind earlier work;
* **shed marks** — requests rejected at admission (``outcome="shed"``).

On top of the schedule sits a USE-style summary per lane (Utilization:
busy fraction; Saturation: time-weighted queue-depth percentiles and
peak; Errors: sheds and error-status executions), a deterministic text
Gantt rendering, and a collapsed JSON export.

Everything is derived from virtual-time stamps, so identically-seeded
runs render and export byte-identically.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import quantile_label
from repro.obs.span import Span

TIMELINE_SCHEMA = "repro.obs.timeline/v1"

#: The span-name prefix marking lane residency.
LANE_SPAN_PREFIX = "queue:"

#: Queue-depth percentiles reported per lane (time-weighted).
DEPTH_PERCENTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def _spans_to_records(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    return [span.to_dict() for span in spans]


class LaneSegment:
    """One executed request's residency on its lane."""

    __slots__ = ("span_id", "operation", "start_ms", "end_ms", "wait_ms", "status")

    def __init__(
        self,
        span_id: int,
        operation: str,
        start_ms: float,
        end_ms: float,
        wait_ms: float,
        status: str,
    ) -> None:
        self.span_id = span_id
        self.operation = operation
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.wait_ms = wait_ms
        self.status = status

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def submit_ms(self) -> float:
        return self.start_ms - self.wait_ms

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "operation": self.operation,
            "start_ms": round(self.start_ms, 6),
            "end_ms": round(self.end_ms, 6),
            "wait_ms": round(self.wait_ms, 6),
            "status": self.status,
        }


class ShardLane:
    """One worker shard's reconstructed schedule."""

    def __init__(self, platform: str, shard: int) -> None:
        self.platform = platform
        self.shard = shard
        #: Busy segments in start order (serial — never overlapping).
        self.segments: List[LaneSegment] = []
        self.sheds = 0

    @property
    def key(self) -> Tuple[str, int]:
        return (self.platform, self.shard)

    @property
    def name(self) -> str:
        return f"{self.platform}/{self.shard}"

    @property
    def busy_ms(self) -> float:
        return sum(segment.duration_ms for segment in self.segments)

    @property
    def executed(self) -> int:
        return len(self.segments)

    @property
    def errors(self) -> int:
        return sum(1 for segment in self.segments if segment.status != "ok")

    def utilization(self, window_ms: float) -> float:
        if window_ms <= 0:
            return 0.0
        return self.busy_ms / window_ms

    @property
    def shed_rate(self) -> float:
        offered = self.executed + self.sheds
        return self.sheds / offered if offered else 0.0

    # -- queue depth ---------------------------------------------------------

    def depth_steps(self) -> List[Tuple[float, int]]:
        """The lane's queue depth as a step function: ``(t, depth)``
        change points, chronological.  Depth counts requests admitted
        (submitted) but not yet executing; at one instant arrivals are
        applied before departures, so instantaneous bursts peak."""
        deltas: List[Tuple[float, int]] = []
        for segment in self.segments:
            deltas.append((segment.submit_ms, +1))
            deltas.append((segment.start_ms, -1))
        # +1 before -1 at the same instant (sort key: departures last).
        deltas.sort(key=lambda item: (item[0], -item[1]))
        steps: List[Tuple[float, int]] = []
        depth = 0
        for t, delta in deltas:
            depth += delta
            if steps and abs(steps[-1][0] - t) <= 1e-9:
                # Keep the pre-collapse peak: never lower an existing
                # same-instant step, so bursts remain visible.
                steps[-1] = (t, max(steps[-1][1], depth))
            else:
                steps.append((t, depth))
        return steps

    @property
    def peak_depth(self) -> int:
        steps = self.depth_steps()
        return max((depth for _, depth in steps), default=0)

    def depth_percentiles(self, t_end: float) -> Dict[str, float]:
        """Time-weighted queue-depth percentiles over the lane's
        observed window (ending at ``t_end``)."""
        steps = self.depth_steps()
        out = {quantile_label(q): 0.0 for q in DEPTH_PERCENTILES}
        if not steps:
            return out
        #: (depth, dwell_ms) — how long the lane sat at each depth.
        dwell: Dict[int, float] = {}
        for (t, depth), nxt in zip(steps, steps[1:] + [(t_end, 0)]):
            dwell[depth] = dwell.get(depth, 0.0) + max(0.0, nxt[0] - t)
        total = sum(dwell.values())
        if total <= 0:
            return out
        cumulative = 0.0
        ordered = sorted(dwell.items())
        for q in DEPTH_PERCENTILES:
            target = q * total
            cumulative = 0.0
            value = float(ordered[-1][0])
            for depth, weight in ordered:
                cumulative += weight
                if cumulative >= target - 1e-12:
                    value = float(depth)
                    break
            out[quantile_label(q)] = value
        return out


class ShardTimelines:
    """The full reconstructed schedule: every lane of every platform."""

    def __init__(self) -> None:
        self.lanes: Dict[Tuple[str, int], ShardLane] = {}
        self.t0_ms = 0.0
        self.t_end_ms = 0.0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[Dict[str, Any]]) -> "ShardTimelines":
        timelines = cls()
        starts: List[float] = []
        ends: List[float] = []
        for record in records:
            name = record.get("name", "")
            if not name.startswith(LANE_SPAN_PREFIX):
                continue
            attributes = record.get("attributes") or {}
            shard = attributes.get("shard")
            if shard is None:
                continue
            platform = attributes.get("platform", "unknown")
            lane = timelines._lane(platform, int(shard))
            if attributes.get("outcome") == "shed":
                lane.sheds += 1
                continue
            end = record.get("end_virtual_ms")
            if end is None:
                continue
            start = record.get("start_virtual_ms") or 0.0
            wait = float(attributes.get("wait_ms", 0.0) or 0.0)
            lane.segments.append(
                LaneSegment(
                    record["span_id"],
                    name[len(LANE_SPAN_PREFIX):],
                    start,
                    end,
                    wait,
                    record.get("status", "ok"),
                )
            )
            starts.append(start - wait)
            ends.append(end)
        for lane in timelines.lanes.values():
            lane.segments.sort(key=lambda s: (s.start_ms, s.span_id))
        timelines.t0_ms = min(starts) if starts else 0.0
        timelines.t_end_ms = max(ends) if ends else 0.0
        return timelines

    @classmethod
    def from_spans(cls, spans: Iterable[Span]) -> "ShardTimelines":
        return cls.from_records(_spans_to_records(spans))

    def _lane(self, platform: str, shard: int) -> ShardLane:
        key = (platform, shard)
        lane = self.lanes.get(key)
        if lane is None:
            lane = self.lanes[key] = ShardLane(platform, shard)
        return lane

    # -- reading -------------------------------------------------------------

    @property
    def window_ms(self) -> float:
        return self.t_end_ms - self.t0_ms

    def sorted_lanes(self) -> List[ShardLane]:
        return [self.lanes[key] for key in sorted(self.lanes)]

    def utilization_by_lane(self) -> Dict[str, float]:
        """``"platform/shard" -> busy fraction`` over the shared window."""
        window = self.window_ms
        return {
            lane.name: round(lane.utilization(window), 6)
            for lane in self.sorted_lanes()
        }

    def summary(self) -> Dict[str, Any]:
        """The USE view per lane: Utilization (busy fraction),
        Saturation (queue-depth percentiles, peak), Errors (sheds,
        error executions)."""
        window = self.window_ms
        lanes = []
        for lane in self.sorted_lanes():
            lanes.append(
                {
                    "lane": lane.name,
                    "platform": lane.platform,
                    "shard": lane.shard,
                    "executed": lane.executed,
                    "busy_ms": round(lane.busy_ms, 6),
                    "utilization": round(lane.utilization(window), 6),
                    "queue_depth": {
                        key: round(value, 6)
                        for key, value in lane.depth_percentiles(
                            self.t_end_ms
                        ).items()
                    },
                    "peak_depth": lane.peak_depth,
                    "sheds": lane.sheds,
                    "shed_rate": round(lane.shed_rate, 6),
                    "errors": lane.errors,
                }
            )
        return {
            "window_ms": round(window, 6),
            "t0_ms": round(self.t0_ms, 6),
            "t_end_ms": round(self.t_end_ms, 6),
            "lanes": lanes,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Collapsed export: summary plus every lane's segments."""
        out = self.summary()
        out["schema"] = TIMELINE_SCHEMA
        segments = {}
        for lane in self.sorted_lanes():
            segments[lane.name] = [segment.to_dict() for segment in lane.segments]
        out["segments"] = segments
        return out

    def to_json(self) -> str:
        """Deterministic serialized form (sorted keys, 6-dp rounding)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    # -- rendering -----------------------------------------------------------

    def render_text(self, *, width: int = 60) -> str:
        """The operator Gantt: one row per lane over a fixed-width time
        axis (``#`` mostly busy, ``+`` partially busy, ``~`` idle with
        requests queued, ``.`` idle), followed by the USE summary."""
        if width < 10:
            raise ValueError(f"width must be >= 10, got {width}")
        window = self.window_ms
        lanes = self.sorted_lanes()
        if not lanes or window <= 0:
            return "(no lane spans in trace)"
        name_width = max(len(lane.name) for lane in lanes)
        bucket_ms = window / width
        lines = [
            f"shard timelines: {self.t0_ms:.1f}ms .. {self.t_end_ms:.1f}ms "
            f"({window:.1f}ms window, {bucket_ms:.1f}ms/cell)"
        ]
        for lane in lanes:
            cells = []
            for index in range(width):
                lo = self.t0_ms + index * bucket_ms
                hi = lo + bucket_ms
                busy = 0.0
                for segment in lane.segments:
                    busy += max(
                        0.0, min(segment.end_ms, hi) - max(segment.start_ms, lo)
                    )
                queued = any(
                    segment.submit_ms < hi and segment.start_ms > lo
                    for segment in lane.segments
                )
                fraction = busy / bucket_ms
                if fraction >= 0.5:
                    cells.append("#")
                elif fraction > 0.0:
                    cells.append("+")
                elif queued:
                    cells.append("~")
                else:
                    cells.append(".")
            util = lane.utilization(window)
            lines.append(
                f"{lane.name.ljust(name_width)} |{''.join(cells)}| "
                f"util={util:.2f} n={lane.executed} shed={lane.sheds}"
            )
        lines.append("")
        lines.append("USE summary (Utilization / Saturation / Errors):")
        for entry in self.summary()["lanes"]:
            depth = entry["queue_depth"]
            lines.append(
                f"  {entry['lane']}: util={entry['utilization']:.2f} "
                f"busy={entry['busy_ms']:.1f}ms n={entry['executed']} | "
                f"depth p50={depth['p50']:g} p95={depth['p95']:g} "
                f"p99={depth['p99']:g} peak={entry['peak_depth']} | "
                f"shed={entry['sheds']} ({entry['shed_rate']:.2%}) "
                f"errors={entry['errors']}"
            )
        return "\n".join(lines)
