"""Property tests for the sampling pipeline's three core guarantees:

1. same-seed determinism — replaying an identical trace stream through
   identically-configured pipelines yields **byte-identical** sampled
   exports (and on real workloads, across all three platforms);
2. safety — the tail keep rules never drop an anomalous trace, at any
   head rate;
3. truthful accounting — rollup request/error counts always equal the
   unsampled totals, at any head rate.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.obs import Observability
from repro.obs.pipeline import ANOMALY_EVENTS, PipelineConfig, TelemetryPipeline
from tests.chaos.drivers import DRIVERS, PLATFORMS, transient_plan

pytestmark = [pytest.mark.obs, pytest.mark.pipeline]

OPS = ("dispatch:notify", "dispatch:report", "locate")


@st.composite
def trace_records(draw):
    """One synthetic exported trace: a root plus 0–3 children, possibly
    carrying an error status or an anomaly event."""
    trace_id = draw(st.integers(min_value=1, max_value=10_000))
    start = float(draw(st.integers(min_value=0, max_value=100_000)))
    duration = float(draw(st.integers(min_value=1, max_value=2_000)))
    error = draw(st.booleans())
    event = draw(
        st.one_of(st.none(), st.sampled_from(sorted(ANOMALY_EVENTS)))
    )
    records = [
        {
            "name": draw(st.sampled_from(OPS)),
            "trace_id": trace_id,
            "span_id": 1,
            "parent_id": None,
            "start_virtual_ms": start,
            "end_virtual_ms": start + duration,
            "status": "error" if error else "ok",
            "error": "boom" if error else None,
            "attributes": {"platform": draw(st.sampled_from(PLATFORMS))},
            "events": []
            if event is None
            else [{"name": event, "t_virtual_ms": start, "attributes": {}}],
        }
    ]
    for child_id in range(2, draw(st.integers(min_value=2, max_value=5))):
        records.append(
            {
                "name": "binding:send",
                "trace_id": trace_id,
                "span_id": child_id,
                "parent_id": 1,
                "start_virtual_ms": start,
                "end_virtual_ms": start + duration,
                "status": "ok",
                "error": None,
                "attributes": {},
                "events": [],
            }
        )
    return records


def _distinct_traces(streams):
    """Flatten, dropping duplicate trace ids (one pipeline trace each)."""
    seen, flat = set(), []
    for records in streams:
        if records[0]["trace_id"] not in seen:
            seen.add(records[0]["trace_id"])
            flat.extend(records)
    return flat


stream_strategy = st.lists(trace_records(), min_size=1, max_size=30)
rate_strategy = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
seed_strategy = st.integers(min_value=0, max_value=2**32)


class TestSampledExportDeterminism:
    @given(streams=stream_strategy, rate=rate_strategy, seed=seed_strategy)
    @settings(max_examples=40, deadline=None)
    def test_same_seed_byte_identical_exports(self, streams, rate, seed):
        records = _distinct_traces(streams)
        config = PipelineConfig(default_rate=rate, seed=seed)
        exports = []
        for _ in range(2):
            pipeline = TelemetryPipeline(config)
            pipeline.ingest_records(json.loads(json.dumps(records)))
            exports.append(pipeline.export_jsonl())
        assert exports[0] == exports[1]

    @given(streams=stream_strategy, rate=rate_strategy)
    @settings(max_examples=20, deadline=None)
    def test_different_seeds_only_change_head_keeps(self, streams, rate):
        records = _distinct_traces(streams)
        accountings = []
        for seed in (1, 2):
            pipeline = TelemetryPipeline(
                PipelineConfig(default_rate=rate, seed=seed)
            )
            pipeline.ingest_records(records)
            accountings.append(pipeline.accounting())
        a, b = accountings
        assert a["traces_total"] == b["traces_total"]
        assert a["anomalous_traces"] == b["anomalous_traces"]
        assert a["tail_misses"] == b["tail_misses"] == 0


class TestTailSafety:
    @given(streams=stream_strategy, rate=rate_strategy, seed=seed_strategy)
    @settings(max_examples=40, deadline=None)
    def test_tail_rules_never_drop_anomalous_traces(self, streams, rate, seed):
        records = _distinct_traces(streams)
        pipeline = TelemetryPipeline(
            PipelineConfig(default_rate=rate, seed=seed)
        )
        pipeline.ingest_records(records)
        accounting = pipeline.accounting()
        assert accounting["tail_misses"] == 0
        assert accounting["anomalous_kept"] == accounting["anomalous_traces"]
        # Every anomalous root is present in the sampled export.
        kept_traces = {
            record["trace_id"]
            for record in map(json.loads, pipeline.export_jsonl().splitlines())
        }
        for record in records:
            anomalous = record["status"] != "ok" or record["events"]
            if record["parent_id"] is None and anomalous:
                assert record["trace_id"] in kept_traces


class TestRollupTruth:
    @given(streams=stream_strategy, rate=rate_strategy, seed=seed_strategy)
    @settings(max_examples=40, deadline=None)
    def test_rollup_counts_equal_unsampled_counts(self, streams, rate, seed):
        records = _distinct_traces(streams)
        pipeline = TelemetryPipeline(
            PipelineConfig(default_rate=rate, seed=seed)
        )
        traces = pipeline.ingest_records(records)
        assert pipeline.rollups.requests == traces
        assert pipeline.rollups.errors == sum(
            1
            for record in records
            if record["parent_id"] is None and record["status"] != "ok"
        )


@pytest.mark.parametrize("platform", PLATFORMS)
class TestWorkloadExportDeterminism:
    def test_same_seed_byte_identical_on_every_platform(self, platform):
        """The full-stack version of the property: a seeded chaos
        workload at a 30% head rate exports byte-identical JSONL on
        repeat runs, on all three platforms."""
        exports = []
        for _ in range(2):
            hub = Observability()
            hub.install_pipeline(
                PipelineConfig(default_rate=0.3, seed=5, streaming=True)
            )
            DRIVERS[platform](transient_plan(0.3, seed=9), seed=9, observability=hub)
            exports.append(hub.pipeline.export_jsonl())
        assert exports[0] == exports[1]
        assert exports[0]  # a silent empty export would pass trivially
        accounting = hub.pipeline.accounting()
        assert accounting["traces_kept"] < accounting["traces_total"]
        assert accounting["tail_misses"] == 0
