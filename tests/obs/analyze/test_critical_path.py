"""Critical-path analyzer tests: exact makespan accounting, slack, and
the hypothesis-backed determinism/coverage properties over real
dispatcher traces."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import CriticalPath, Observability, ShardTimelines
from repro.obs.analyze.overhead import parse_jsonl
from repro.runtime import ConcurrencyRuntime
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.obs


def rec(span_id, start, end, *, shard, wait=0.0, platform="p", op="work"):
    return {
        "name": f"queue:{op}",
        "span_id": span_id,
        "start_virtual_ms": start,
        "end_virtual_ms": end,
        "status": "ok",
        "attributes": {"platform": platform, "shard": shard, "wait_ms": wait},
    }


class TestSyntheticSchedules:
    def test_single_lane_back_to_back(self):
        path = CriticalPath.from_records([
            rec(1, 0.0, 10.0, shard=0),
            rec(2, 10.0, 30.0, shard=0, wait=10.0),
        ])
        assert path.makespan_ms == 30.0
        assert [step.kind for step in path.steps] == ["run", "run"]
        assert path.total_ms == pytest.approx(path.makespan_ms)
        assert path.wait_ms == 0.0

    def test_wait_step_covers_gaps(self):
        # A 10ms idle gap between the two executions: nothing ends inside
        # it, so the path records an irreducible wait.
        path = CriticalPath.from_records([
            rec(1, 0.0, 10.0, shard=0),
            rec(2, 20.0, 30.0, shard=0),
        ])
        assert [step.kind for step in path.steps] == ["run", "wait", "run"]
        assert path.wait_ms == 10.0
        assert path.total_ms == pytest.approx(path.makespan_ms)

    def test_chain_prefers_resource_edges_on_same_lane(self):
        # Lane 0 is packed to the end; lane 1 finishes early.  The path
        # must walk lane 0 back-to-back, never hopping to lane 1.
        path = CriticalPath.from_records([
            rec(1, 0.0, 10.0, shard=0),
            rec(2, 10.0, 20.0, shard=0, wait=10.0),
            rec(3, 0.0, 10.0, shard=1),
        ])
        assert [step.lane for step in path.steps] == ["p/0", "p/0"]

    def test_slack_zero_on_critical_lane_positive_elsewhere(self):
        path = CriticalPath.from_records([
            rec(1, 0.0, 10.0, shard=0),
            rec(2, 10.0, 20.0, shard=0, wait=10.0),
            rec(3, 0.0, 5.0, shard=1),
        ])
        slack = {entry["span_id"]: entry["slack_ms"] for entry in path.span_slack}
        assert slack[1] == 0.0  # shifting it delays span 2, then the end
        assert slack[2] == 0.0
        assert slack[3] == 15.0  # lane 1 could run 15ms longer for free

    def test_parallelism_and_ideal(self):
        path = CriticalPath.from_records([
            rec(1, 0.0, 10.0, shard=0),
            rec(2, 0.0, 10.0, shard=1),
        ])
        assert path.work_ms == 20.0
        assert path.ideal_ms == 10.0
        assert path.parallelism == pytest.approx(2.0)

    def test_by_operation_attribution(self):
        path = CriticalPath.from_records([
            rec(1, 0.0, 10.0, shard=0, op="get"),
            rec(2, 10.0, 30.0, shard=0, op="post", wait=10.0),
        ])
        assert path.by_operation() == {"get": 10.0, "post": 20.0}

    def test_empty_trace(self):
        path = CriticalPath.from_records([])
        assert path.steps == []
        assert path.makespan_ms == 0.0
        assert path.render_text() == "(no lane spans in trace)"

    def test_json_export_schema(self):
        path = CriticalPath.from_records([rec(1, 0.0, 10.0, shard=0)])
        payload = json.loads(path.to_json())
        assert payload["schema"] == "repro.obs.critical_path/v1"
        assert payload["makespan_ms"] == 10.0
        assert payload["steps"][0]["kind"] == "run"

    def test_render_text_elides_long_paths(self):
        records = [
            rec(i + 1, 10.0 * i, 10.0 * (i + 1), shard=0, wait=10.0 * i)
            for i in range(50)
        ]
        text = CriticalPath.from_records(records).render_text(max_steps=10)
        assert "step(s) elided" in text


# Hypothesis-generated dispatcher workloads: arbitrary sleeps, charges
# and priorities over a sharded runtime, analysed from the real export.
LEG = st.tuples(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.1, max_value=40.0),
)
WORKLOAD = st.tuples(st.integers(min_value=0, max_value=3), st.lists(LEG, max_size=4))
FLEET_SPEC = st.lists(WORKLOAD, min_size=1, max_size=5)


def run_spec(spec, *, seed: int, shards: int = 3) -> str:
    world = Scheduler(SimulatedClock())
    hub = Observability()
    runtime = ConcurrencyRuntime(
        world, shards=shards, queue_depth=64, seed=seed, observability=hub
    )
    dispatcher = runtime.dispatcher("prop")

    def workload(legs):
        for sleep_ms, charge_ms in legs:
            yield sleep_ms
            yield dispatcher.submit(
                "leg",
                lambda c=charge_ms: world.clock.advance(c),
                tracer=hub.tracer,
            )

    for index, (priority, legs) in enumerate(spec):
        runtime.spawn(f"agent-{index}", workload(legs), priority=priority)
    runtime.drain()
    return hub.export_jsonl()


class TestTraceProperties:
    @settings(max_examples=25, deadline=None)
    @given(spec=FLEET_SPEC, seed=st.integers(min_value=0, max_value=2**16))
    def test_path_durations_sum_exactly_to_makespan(self, spec, seed):
        records = parse_jsonl(run_spec(spec, seed=seed))
        path = CriticalPath.from_records(records)
        assert path.total_ms == pytest.approx(path.makespan_ms, abs=1e-6)
        assert path.run_ms + path.wait_ms == pytest.approx(
            path.makespan_ms, abs=1e-6
        )
        # Steps tile the window contiguously, in chronological order.
        cursor = path.t0_ms
        for step in path.steps:
            assert step.start_ms == pytest.approx(cursor, abs=1e-6)
            cursor = step.end_ms
        if path.steps:
            assert cursor == pytest.approx(path.t_end_ms, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(spec=FLEET_SPEC, seed=st.integers(min_value=0, max_value=2**16))
    def test_lane_segments_never_overlap(self, spec, seed):
        records = parse_jsonl(run_spec(spec, seed=seed))
        timelines = ShardTimelines.from_records(records)
        for lane in timelines.sorted_lanes():
            for earlier, later in zip(lane.segments, lane.segments[1:]):
                assert earlier.end_ms <= later.start_ms + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(spec=FLEET_SPEC, seed=st.integers(min_value=0, max_value=2**16))
    def test_same_seed_byte_identical_exports(self, spec, seed):
        first = run_spec(spec, seed=seed)
        second = run_spec(spec, seed=seed)
        assert first == second
        a = parse_jsonl(first)
        assert (
            CriticalPath.from_records(a).to_json()
            == CriticalPath.from_records(parse_jsonl(second)).to_json()
        )
        assert (
            ShardTimelines.from_records(a).to_json()
            == ShardTimelines.from_records(parse_jsonl(second)).to_json()
        )
