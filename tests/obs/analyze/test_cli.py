"""The ``python -m repro.obs`` command line."""

import json

import pytest

from repro.obs import FlightRecorder, Tracer, export_jsonl
from repro.obs.analyze.cli import COMMANDS, build_parser, main
from repro.util.clock import SimulatedClock

pytestmark = pytest.mark.obs


@pytest.fixture
def trace_path(tmp_path):
    clock = SimulatedClock()
    tracer = Tracer(clock)
    for latency in (5.0, 50.0):
        with tracer.span("dispatch:getLocation", platform="android"):
            clock.advance(1.0)
            with tracer.span("substrate:android.getLocation"):
                clock.advance(latency)
    path = tmp_path / "trace.jsonl"
    path.write_text(export_jsonl(tracer.finished_spans()), encoding="utf-8")
    return path


def lane_record(span_id, start, end, *, shard, wait=0.0):
    return {
        "name": "queue:work",
        "span_id": span_id,
        "start_virtual_ms": start,
        "end_virtual_ms": end,
        "status": "ok",
        "attributes": {"platform": "bench", "shard": shard, "wait_ms": wait},
    }


@pytest.fixture
def lane_trace_path(tmp_path):
    """A trace with overlapping ``queue:<op>`` lane spans on two shards."""
    records = [
        lane_record(1, 0.0, 10.0, shard=0),
        lane_record(2, 10.0, 25.0, shard=0, wait=10.0),
        lane_record(3, 0.0, 5.0, shard=1),
    ]
    path = tmp_path / "lanes.jsonl"
    path.write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n",
        encoding="utf-8",
    )
    return path


class TestHelpConvention:
    def test_help_enumerates_every_subcommand(self):
        text = build_parser().format_help()
        for name, description in COMMANDS:
            assert name in text
            assert description in text

    def test_every_subcommand_accepts_format_and_json(self):
        parser = build_parser()
        extra = {"slo": ["--slo", "get:10"], "diff": ["y"]}
        # `scenario` nests its own actions; `list` carries the convention.
        argv = {"scenario": ["scenario", "list"]}
        for name, _ in COMMANDS:
            args = argv.get(name, [name, "x"] + extra.get(name, []))
            parsed = parser.parse_args(args + ["--json"])
            assert parsed.format == "json"
            parsed = parser.parse_args(args + ["--format", "text"])
            assert parsed.format == "text"


class TestProfileCommand:
    def test_table_output(self, trace_path, capsys):
        assert main(["profile", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "getLocation" in out
        assert "android" in out

    def test_json_and_out_file(self, trace_path, tmp_path, capsys):
        saved = tmp_path / "profile.json"
        assert main(
            ["profile", str(trace_path), "--json", "--out", str(saved)]
        ) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(saved.read_text())
        assert printed["schema"] == "repro.obs.profile/v1"

    def test_flame_and_top(self, trace_path, capsys):
        assert main(["profile", str(trace_path), "--flame", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "dispatch:getLocation;substrate:android.getLocation" in out
        assert "self%" in out  # the top-N table rode along


class TestSloCommand:
    def test_met_slo_exits_zero(self, trace_path, capsys):
        code = main(
            ["slo", str(trace_path), "--slo", "getLocation:100:0.9"]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_breached_slo_exits_one(self, trace_path, capsys):
        code = main(["slo", str(trace_path), "--slo", "getLocation:10"])
        assert code == 1
        assert "BREACHED" in capsys.readouterr().out

    def test_json_output(self, trace_path, capsys):
        main(["slo", str(trace_path), "--slo", "getLocation:100:0.9", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ingested"] == 2
        assert payload["statuses"][0]["slo"] == "getLocation@*"


class TestDiffCommand:
    def test_identical_passes(self, trace_path, capsys):
        assert main(["diff", str(trace_path), str(trace_path)]) == 0
        assert "no per-layer regressions" in capsys.readouterr().out

    def test_report_only_by_default(self, trace_path, tmp_path, capsys):
        slower = tmp_path / "slower.jsonl"
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        for record in records:
            record["end_virtual_ms"] = record["end_virtual_ms"] * 2.0
        slower.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n",
            encoding="utf-8",
        )
        # Without --gate regressions are reported but exit 0.
        assert main(["diff", str(trace_path), str(slower)]) == 0
        assert "REGRESSIONS" in capsys.readouterr().out
        # With --gate the same comparison fails the run.
        assert main(["diff", str(trace_path), str(slower), "--gate"]) == 1

    def test_gate_json_output(self, trace_path, capsys):
        assert main(
            ["diff", str(trace_path), str(trace_path), "--gate", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_gate_rejects_a_non_virtual_profile(self, trace_path, tmp_path):
        """A profile folded in another time domain never reaches the
        layer-by-layer comparison: the gate errors out (the uncaught
        ``ValueError`` exits ``python -m repro.obs`` with status 1)."""
        base = tmp_path / "base.json"
        assert main(["profile", str(trace_path), "--out", str(base)]) == 0
        real = tmp_path / "real.json"
        real.write_text(
            json.dumps({**json.loads(base.read_text()), "time": "real"}),
            encoding="utf-8",
        )
        for pair in ((base, real), (real, base)):
            with pytest.raises(ValueError, match="not 'virtual'"):
                main(["diff", "--gate", *map(str, pair)])


class TestTimelineCommand:
    def test_text_gantt_and_use_summary(self, lane_trace_path, capsys):
        assert main(["timeline", str(lane_trace_path), "--width", "10"]) == 0
        out = capsys.readouterr().out
        assert "bench/0" in out
        assert "bench/1" in out
        assert "USE summary" in out

    def test_json_and_out_file(self, lane_trace_path, tmp_path, capsys):
        saved = tmp_path / "timeline.json"
        assert main(
            ["timeline", str(lane_trace_path), "--json", "--out", str(saved)]
        ) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(saved.read_text())
        assert printed["schema"] == "repro.obs.timeline/v1"
        assert set(printed["segments"]) == {"bench/0", "bench/1"}


class TestCriticalPathCommand:
    def test_text_output(self, lane_trace_path, capsys):
        assert main(["critical-path", str(lane_trace_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "makespan" in out

    def test_json_and_out_file(self, lane_trace_path, tmp_path, capsys):
        saved = tmp_path / "path.json"
        assert main(
            [
                "critical-path",
                str(lane_trace_path),
                "--json",
                "--out",
                str(saved),
            ]
        ) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(saved.read_text())
        assert printed["schema"] == "repro.obs.critical_path/v1"
        # The lane-0 chain exactly explains the 25ms makespan.
        assert printed["makespan_ms"] == 25.0
        assert sum(s["duration_ms"] for s in printed["steps"]) == 25.0


@pytest.fixture
def flight_path(tmp_path):
    clock = SimulatedClock()
    recorder = FlightRecorder(clock=clock)
    tracer = Tracer(clock)
    recorder.attach(tracer, source="agent-0")
    with tracer.span("queue:work", shard=0):
        clock.advance(5.0)
    recorder.trigger("task.crashed", task="doomed")
    path = tmp_path / "flight.json"
    path.write_text(recorder.to_json(), encoding="utf-8")
    return path


class TestFlightCommand:
    def test_text_render(self, flight_path, capsys):
        assert main(["flight", str(flight_path)]) == 0
        out = capsys.readouterr().out
        assert "dump #1: task.crashed" in out
        assert "queue:work" in out

    def test_json_roundtrip(self, flight_path, capsys):
        assert main(["flight", str(flight_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs.flight/v1"
        assert payload["dumps"][0]["reason"] == "task.crashed"

    def test_rejects_non_flight_document(self, trace_path):
        with pytest.raises(ValueError):
            main(["flight", str(trace_path)])


def admission_record(span_id, events):
    return {
        "name": "queue:get",
        "span_id": span_id,
        "start_virtual_ms": 0.0,
        "end_virtual_ms": 1.0,
        "status": "error",
        "attributes": {"platform": "android"},
        "events": events,
    }


@pytest.fixture
def admission_trace_path(tmp_path):
    """A trace with shed, throttle and autoscale events."""
    records = [
        admission_record(1, [{
            "name": "queue.shed", "t_virtual_ms": 1.0,
            "attributes": {"platform": "android", "priority": "low",
                           "reason": "evicted"},
        }]),
        admission_record(2, [{
            "name": "queue.shed", "t_virtual_ms": 2.0,
            "attributes": {"platform": "android", "priority": "normal",
                           "reason": "queue_full"},
        }]),
        admission_record(3, [{
            "name": "queue.throttled", "t_virtual_ms": 3.0,
            "attributes": {"platform": "android", "priority": "low",
                           "tenant": "agent-1", "retry_after_ms": 25.0},
        }]),
        admission_record(4, [{
            "name": "autoscale.resize", "t_virtual_ms": 4.0,
            "attributes": {"platform": "android", "from_shards": 2,
                           "to_shards": 3, "direction": "up"},
        }]),
    ]
    path = tmp_path / "admission.jsonl"
    path.write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n",
        encoding="utf-8",
    )
    return path


class TestAdmissionCommand:
    def test_text_output(self, admission_trace_path, capsys):
        assert main(["admission", str(admission_trace_path)]) == 0
        out = capsys.readouterr().out
        assert "2 shed, 1 throttled, 1 autoscaler resizes" in out
        assert "evicted" in out
        assert "queue_full" in out
        assert "agent-1" in out

    def test_json_and_out_file(self, admission_trace_path, tmp_path, capsys):
        out_path = tmp_path / "admission.json"
        assert main([
            "admission", str(admission_trace_path),
            "--json", "--out", str(out_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["shed_by_priority"] == {"low": 1, "normal": 1}
        assert payload["shed_by_reason"] == {"evicted": 1, "queue_full": 1}
        assert payload["throttled_by_tenant"] == {"agent-1": 1}
        assert payload["resizes"] == [{
            "t_ms": 4.0, "platform": "android",
            "from": 2, "to": 3, "direction": "up",
        }]

    def test_empty_trace_reports_zeros(self, trace_path, capsys):
        # a trace with no admission events is a valid (quiet) report
        assert main(["admission", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "0 shed, 0 throttled, 0 autoscaler resizes" in out


def distrib_record(span_id, name, attributes, events=()):
    return {
        "name": name,
        "span_id": span_id,
        "start_virtual_ms": 0.0,
        "end_virtual_ms": 0.0,
        "status": "ok",
        "attributes": attributes,
        "events": list(events),
    }


@pytest.fixture
def distrib_trace_path(tmp_path):
    """A trace with replication, gossip, partition, dedup and saga records."""
    records = [
        distrib_record(1, "replicate:reports", {
            "table": "reports", "region": "eu-west", "lag_ms": 250.0,
        }),
        distrib_record(2, "replicate:reports", {
            "table": "reports", "region": "eu-west", "lag_ms": 350.0,
        }),
        distrib_record(3, "gossip:reports", {"table": "reports", "merges": 4}),
        distrib_record(4, "partition:ap-south|eu-west", {"event": "cut"}),
        distrib_record(5, "partition:ap-south|eu-west", {"event": "heal"}),
        distrib_record(6, "resilience:post", {"platform": "android"}, [
            {"name": "distrib.dedup", "t_virtual_ms": 1.0,
             "attributes": {"store": "network", "site": "network.request"}},
        ]),
        distrib_record(7, "saga:report", {"saga": "report"}, [
            {"name": "saga.completed", "t_virtual_ms": 2.0,
             "attributes": {"saga": "report", "steps": 2}},
        ]),
    ]
    path = tmp_path / "distrib.jsonl"
    path.write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def causal_trace_path(tmp_path):
    """A write, its replication apply, and a dedup suppression."""
    records = [
        distrib_record(1, "write:reports", {
            "table": "reports", "key": "agent-1", "version": "1@ap-south",
            "region": "ap-south", "causal.vc": "ap-south:1",
        }),
        {
            "name": "replicate:reports", "span_id": 2,
            "start_virtual_ms": 250.0, "end_virtual_ms": 250.0,
            "status": "ok", "events": [],
            "attributes": {
                "table": "reports", "key": "agent-1",
                "version": "1@ap-south", "region": "eu-west",
                "lag_ms": 250.0, "causal.origin": "None:1",
                "causal.vc": "ap-south:1",
            },
        },
        distrib_record(3, "resilience:post", {"platform": "android"}, [
            {"name": "distrib.dedup", "t_virtual_ms": 1.0,
             "attributes": {"store": "network", "chain": "Http:post#1",
                            "region": "ap-south"}},
        ]),
    ]
    path = tmp_path / "causal.jsonl"
    path.write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def violation_trace_path(tmp_path):
    records = [
        distrib_record(1, "causal.audit", {"kind": "lww_causality_inversion"}, [
            {"name": "causal.violation", "t_virtual_ms": 3.0,
             "attributes": {"kind": "lww_causality_inversion",
                            "table": "t", "key": "k", "region": "eu-west",
                            "winner": "2@eu-west",
                            "overwritten": "1@ap-south"}},
        ]),
    ]
    path = tmp_path / "violation.jsonl"
    path.write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n",
        encoding="utf-8",
    )
    return path


class TestCausalCommand:
    def test_text_output(self, causal_trace_path, capsys):
        assert main(["causal", str(causal_trace_path)]) == 0
        out = capsys.readouterr().out
        assert "acyclic" in out
        assert "reports/eu-west" in out
        assert "audit: clean" in out
        assert "dedup chains joined: 1" in out

    def test_json_and_out_file(self, causal_trace_path, tmp_path, capsys):
        out_path = tmp_path / "causal.json"
        assert main([
            "causal", str(causal_trace_path),
            "--json", "--out", str(out_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.obs.causal/v1"
        assert payload["writes"] == 1
        assert payload["visibility"]["reports/eu-west"]["count"] == 1
        assert payload["visibility"]["reports/eu-west"]["max_ms"] == 250.0
        assert payload["graph"]["acyclic"] is True
        assert payload["dedup_chains"] == {"Http:post#1": 1}

    def test_gate_passes_clean_trace(self, causal_trace_path):
        assert main(["causal", str(causal_trace_path), "--gate"]) == 0

    def test_gate_fails_on_violation(self, violation_trace_path, capsys):
        assert main(["causal", str(violation_trace_path)]) == 0
        assert main(["causal", str(violation_trace_path), "--gate"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATIONS: 1" in out
        assert "lww_causality_inversion" in out

    def test_distrib_tables_text(self, distrib_trace_path, capsys):
        assert main(["causal", str(distrib_trace_path)]) == 0
        out = capsys.readouterr().out
        assert "replicate=2" in out and "dedup=1" in out
        assert "reports/eu-west" in out
        assert "count=2 mean_ms=300.0 max_ms=350.0" in out
        assert "sweeps=1 merges=4" in out
        assert "cuts=1 heals=1" in out
        assert "dedup by store: network=1" in out
        assert "dedup by site: network.request=1" in out
        assert "completed=1 compensated=0 failed_steps=0" in out

    def test_distrib_tables_json_and_out_file(
        self, distrib_trace_path, tmp_path, capsys
    ):
        out_path = tmp_path / "causal.json"
        assert main([
            "causal", str(distrib_trace_path),
            "--json", "--out", str(out_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["replication"] == {
            "reports/eu-west": {"count": 2, "mean_ms": 300.0, "max_ms": 350.0}
        }
        assert payload["gossip"] == {"reports": {"sweeps": 1, "merges": 4}}
        assert payload["partitions"] == {
            "ap-south|eu-west": {"cuts": 1, "heals": 1}
        }
        assert payload["dedup_by_store"] == {"network": 1}
        assert payload["dedup_by_site"] == {"network.request": 1}
        assert payload["saga_outcomes"] == {
            "report": {"completed": 1, "compensated": 0, "failed_steps": 0}
        }

    def test_quiet_trace_has_empty_tier_tables(self, trace_path, capsys):
        # a trace with no distrib activity is a valid (quiet) report
        assert main(["causal", str(trace_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("replication", "gossip", "partitions",
                    "dedup_by_store", "dedup_by_site", "saga_outcomes"):
            assert payload[key] == {}
        assert main(["causal", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "gossip:" not in out and "dedup by" not in out
