"""CausalReport: the cross-region happens-before graph analyzer.

Unit tests pin the folding rules on synthesized records; the
hypothesis-backed properties run real traced tiers through scripted
interleavings and check the analyzer's three contracts — the stitched
graph is acyclic, every write's visibility steps exactly tile its
convergence window, and same-seed runs export byte-identical reports.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.distrib import DistribConfig, DistribRuntime, SagaStep
from repro.errors import ProxyNetworkError
from repro.obs import CausalReport, Observability, parse_jsonl, render_causal_text
from repro.obs.analyze.causal import CAUSAL_SCHEMA
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.distrib

REGIONS = ("ap-south", "eu-west")


def build_traced_tier(*, seed=1, regions=REGIONS):
    scheduler = Scheduler(SimulatedClock())
    hub = Observability()
    hub.bind_clock(scheduler.clock)
    tier = DistribRuntime(
        scheduler, DistribConfig(regions=regions, seed=seed), observability=hub
    )
    return hub, tier


def report_of(hub):
    return CausalReport.from_records(parse_jsonl(hub.export_jsonl()))


class TestFoldingRules:
    def test_empty_trace(self):
        report = CausalReport.from_records([])
        assert report.acyclic
        data = report.to_dict()
        assert data["schema"] == CAUSAL_SCHEMA
        assert data["graph"] == {
            "nodes": 0, "edges": 0, "cross_region_edges": 0, "acyclic": True,
        }
        assert "audit: clean" in render_causal_text(report)

    def test_write_and_replicate_give_visibility(self):
        hub, tier = build_traced_tier()
        tier.table("t").put("k", "v", region="ap-south")
        tier.scheduler.run_for(1_000.0)
        report = report_of(hub)
        data = report.to_dict()
        assert data["writes"] == 1
        stats = data["visibility"]["t/eu-west"]
        assert stats["count"] == 1
        assert stats["mean_ms"] == 250.0
        assert data["convergence"]["converged"] == 1
        assert data["convergence"]["max_window_ms"] == 250.0
        # The replicate hop carries a causal.origin edge back to the write.
        assert data["graph"]["cross_region_edges"] >= 1
        assert report.acyclic

    def test_visibility_percentiles_are_exact(self):
        """Twelve 250 ms lags, then 400, 250, 250 and 900 ms: the
        nearest-rank p95 of sixteen lags is the largest."""
        lags = [250.0] * 12 + [400.0, 250.0, 250.0, 900.0]
        records = []
        for index, lag in enumerate(lags):
            stamp = {"table": "t", "key": f"k{index}", "version": "1"}
            start = 1_000.0 * index
            records += [
                {
                    "name": "write:t", "trace_id": index, "span_id": 1,
                    "start_virtual_ms": start, "end_virtual_ms": start,
                    "attributes": {**stamp, "region": "ap-south"},
                },
                {
                    "name": "replicate:t", "trace_id": index, "span_id": 2,
                    "start_virtual_ms": start, "end_virtual_ms": start + lag,
                    "attributes": {**stamp, "region": "eu-west", "lag_ms": lag},
                },
            ]
        report = CausalReport.from_records(records)
        assert report.to_dict()["visibility"]["t/eu-west"] == {
            "count": 16, "mean_ms": 300.0, "max_ms": 900.0,
            "p50_ms": 250.0, "p95_ms": 900.0, "p99_ms": 900.0,
        }
        assert "p95=900.0ms" in render_causal_text(report)

    def test_dedup_chain_joins(self):
        records = [
            {
                "name": "resilience:post", "trace_id": 1, "span_id": 1,
                "start_virtual_ms": 0.0, "end_virtual_ms": 1.0,
                "attributes": {}, "events": [
                    {"name": "distrib.dedup", "t_virtual_ms": 0.5,
                     "attributes": {"store": "network",
                                    "chain": "Http:post#3",
                                    "region": "ap-south"}},
                    {"name": "distrib.dedup", "t_virtual_ms": 0.8,
                     "attributes": {"store": "network",
                                    "chain": "Http:post#3",
                                    "region": "ap-south"}},
                ],
            },
        ]
        report = CausalReport.from_records(records)
        assert report.dedup_chains == {"Http:post#3": 2}
        assert report.hops["dedup"] == 2

    def test_cycle_is_detected(self):
        records = [
            {"name": "write:t", "trace_id": 1, "span_id": 1, "parent_id": 2,
             "start_virtual_ms": 0.0, "end_virtual_ms": 0.0,
             "attributes": {}, "events": []},
            {"name": "invalidate:c", "trace_id": 1, "span_id": 2,
             "start_virtual_ms": 0.0, "end_virtual_ms": 0.0,
             "attributes": {"causal.origin": "1:1"}, "events": []},
        ]
        report = CausalReport.from_records(records)
        assert not report.acyclic
        assert "CYCLE DETECTED" in render_causal_text(report)


class TestSagaDecomposition:
    def test_completed_saga_with_replicated_write(self):
        hub, tier = build_traced_tier()
        table = tier.table("t")
        tier.sagas.run(
            "report",
            [SagaStep("write", lambda: table.put("k", "v", region="ap-south"))],
        )
        tier.scheduler.run_for(1_000.0)
        report = report_of(hub)
        (saga,) = report.sagas
        assert saga["saga"] == "report"
        assert saga["status"] == "completed"
        assert saga["region"] == "ap-south"
        assert saga["steps"] == 1
        assert saga["writes"] == 1
        # The saga's write took one replication delay to reach eu-west.
        assert saga["replication_wait_ms"] == 250.0
        assert saga["compensation_ms"] == 0.0

    def test_compensated_saga_counts_compensation(self):
        hub, tier = build_traced_tier()

        def boom():
            raise ProxyNetworkError("injected: peer gone")

        with pytest.raises(ProxyNetworkError):
            tier.sagas.run(
                "report",
                [
                    SagaStep("reserve", lambda: "r", lambda r: None),
                    SagaStep("post", boom),
                ],
            )
        report = report_of(hub)
        (saga,) = report.sagas
        assert saga["status"] == "compensated"
        assert saga["steps"] == 2  # reserve + the failed post attempt
        assert saga["writes"] == 0
        assert saga["replication_wait_ms"] == 0.0


class TestViolationsSurface:
    def test_injected_inversion_lands_in_report(self):
        hub, tier = build_traced_tier()
        table = tier.table("t")
        table.put("k", "old", region="ap-south")
        table.put("k", "new", region="eu-west")
        tier.causal.lookup("t", "k", (1, "ap-south")).vc = {"ap-south": 9}
        tier.causal.lookup("t", "k", (2, "eu-west")).vc = {"ap-south": 1}
        tier.scheduler.run_for(10_000.0)
        tier.run_until_converged()
        report = report_of(hub)
        assert [v["kind"] for v in report.violations] == [
            "lww_causality_inversion"
        ]
        assert report.acyclic
        text = render_causal_text(report)
        assert "VIOLATIONS: 1" in text
        assert "lww_causality_inversion" in text



def sourced(source, span_id, name, *, parent_id=None, attributes=None):
    """A span record as a fleet pipeline exports it: tagged with the
    ``source`` of the tracer that recorded it."""
    return {
        "name": name, "source": source, "trace_id": 1, "span_id": span_id,
        "parent_id": parent_id, "start_virtual_ms": 0.0,
        "end_virtual_ms": 0.0, "status": "ok",
        "attributes": attributes or {}, "events": [],
    }


class TestMultiSourceExports:
    """Trace and span ids are per-tracer counters, so the tracers of one
    fleet export reuse the same ``trace_id:span_id`` refs."""

    def test_reused_refs_stay_distinct_nodes(self):
        records = [
            sourced("agent-1", 1, "dispatch:get"),
            sourced("agent-1", 2, "binding:get", parent_id=1),
            sourced("agent-2", 2, "dispatch:get"),
            sourced("agent-2", 1, "binding:get", parent_id=2),
        ]
        assert CausalReport.from_records(records).to_dict()["graph"] == {
            "nodes": 4, "edges": 2, "cross_region_edges": 0, "acyclic": True,
        }

    def test_origin_resolves_within_the_carrying_source(self):
        # An invalidate whose origin span descends from it closes a
        # cycle, but only when both spans come from the same tracer.
        def records(write_source):
            return [
                sourced(write_source, 1, "write:t", parent_id=2),
                sourced("runtime", 2, "invalidate:c",
                        attributes={"causal.origin": "1:1"}),
            ]

        assert not CausalReport.from_records(records("runtime")).acyclic
        assert CausalReport.from_records(records("agent-1")).acyclic

    def test_fleet_pipeline_export_keeps_every_span(self):
        from repro.apps.workforce.fleet import (
            build_fleet,
            launch_fleet_on_runtime,
        )
        from repro.obs.pipeline import PipelineConfig

        fleet = build_fleet(
            4, runtime=True, observability=True,
            distrib=DistribConfig(regions=REGIONS, seed=1),
            pipeline=PipelineConfig(
                default_rate=1.0, seed=1, span_capacity=100_000
            ),
        )
        launch_fleet_on_runtime(fleet, reports=3, period_ms=20_000.0)
        fleet.runtime.drain()
        records = parse_jsonl(fleet.pipeline.export_jsonl())
        assert len({record["source"] for record in records}) == 5
        report = CausalReport.from_records(records)
        graph = report.to_dict()["graph"]
        assert graph["nodes"] == len(records)
        assert graph["acyclic"]
        for parent, child, kind in report.edges:
            assert parent in report.nodes and parent[0] == child[0]


# One scripted operation against a traced tier:
#   ("put", key ordinal, value, region ordinal)
#   ("cache_put", key ordinal, value, region ordinal)
#   ("partition",) / ("heal",)  — the single region pair
#   ("advance", milliseconds)
OP = st.one_of(
    st.tuples(
        st.just("put"),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=1),
    ),
    st.tuples(
        st.just("cache_put"),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=1),
    ),
    st.tuples(st.just("partition")),
    st.tuples(st.just("heal")),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=600.0)),
)
OPS = st.lists(OP, min_size=1, max_size=25)


def run_script(ops, *, seed):
    """Apply a scripted interleaving to a fresh traced tier."""
    hub, tier = build_traced_tier(seed=seed)
    table = tier.table("t")
    cache = tier.cache("c")
    for op in ops:
        if op[0] == "put":
            table.put(f"k{op[1]}", op[2], region=REGIONS[op[3]])
        elif op[0] == "cache_put":
            cache.put(f"k{op[1]}", op[2], region=REGIONS[op[3]])
        elif op[0] == "partition":
            if not tier.partitions.edges():
                tier.partition(*REGIONS)
        elif op[0] == "heal":
            tier.heal_all()
        else:
            tier.scheduler.run_for(op[1])
    tier.heal_all()
    tier.scheduler.run_for(2_000.0)
    tier.run_until_converged()
    return hub, tier


class TestGraphProperties:
    @settings(max_examples=25, deadline=None)
    @given(ops=OPS, seed=st.integers(min_value=0, max_value=9))
    def test_happens_before_graph_is_acyclic(self, ops, seed):
        hub, _ = run_script(ops, seed=seed)
        assert report_of(hub).acyclic

    @settings(max_examples=25, deadline=None)
    @given(ops=OPS, seed=st.integers(min_value=0, max_value=9))
    def test_visibility_steps_tile_the_convergence_window(self, ops, seed):
        hub, _ = run_script(ops, seed=seed)
        for entry in report_of(hub).convergence_entries():
            tiled = sum(step["delta_ms"] for step in entry["steps"])
            assert tiled == pytest.approx(entry["window_ms"], abs=1e-5)
            # Steps arrive in order; the origin region is step zero.
            assert entry["steps"][0]["via"] == "origin"
            assert entry["steps"][0]["delta_ms"] == 0.0

    @settings(max_examples=15, deadline=None)
    @given(ops=OPS, seed=st.integers(min_value=0, max_value=9))
    def test_same_seed_byte_identical_reports(self, ops, seed):
        first, _ = run_script(ops, seed=seed)
        second, _ = run_script(ops, seed=seed)
        first_json = report_of(first).to_json()
        assert first_json == report_of(second).to_json()
        json.loads(first_json)  # and it is valid JSON

    @settings(max_examples=15, deadline=None)
    @given(ops=OPS, seed=st.integers(min_value=0, max_value=9))
    def test_healthy_scripts_audit_clean(self, ops, seed):
        hub, tier = run_script(ops, seed=seed)
        assert tier.monitor.clean
        assert report_of(hub).violations == []
