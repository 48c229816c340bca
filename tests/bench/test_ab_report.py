"""The A/B report: digest agreement per seed and the Figure-10 medians."""

import json

from benchmarks.ab_report import FIGURE_10, main


def _run(tmp_path, name, seed, digest, overhead):
    details = {metric: [1.0, "us"] for metric in FIGURE_10}
    details["overhead_p50_us"] = [overhead, "us"]
    path = tmp_path / f"{name}-{seed}.json"
    path.write_text(
        json.dumps(
            {
                "seed": seed,
                "workloads": {
                    "fig10_calls": {"digest": digest, "details": details},
                    "fleet_runtime": {"digest": f"fleet{seed}", "details": {}},
                },
            }
        )
    )
    return str(path)


def test_matching_digests_and_medians(tmp_path, capsys):
    base = [_run(tmp_path, "base", s, f"d{s}", o) for s, o in ((1, 18.0), (2, 17.0))]
    new = [_run(tmp_path, "new", s, f"d{s}", o) for s, o in ((2, 12.0), (1, 13.0))]
    assert main(["--base", *base, "--new", *new]) == 0
    out = capsys.readouterr().out
    assert out.count("match") == 4
    assert "overhead_p50_us              17.50     12.50   -28.6%" in out


def test_a_differing_or_missing_digest_fails(tmp_path, capsys):
    base = [_run(tmp_path, "base", 1, "d1", 18.0), _run(tmp_path, "base", 2, "d2", 18.0)]
    new = [_run(tmp_path, "new", 1, "other", 12.0)]
    assert main(["--base", *base, "--new", *new]) == 1
    out = capsys.readouterr().out
    assert "fig10_calls         1  d1           other         DIFFER" in out
    assert "fig10_calls         2  d2           -             missing" in out


def _traced(tmp_path, name, seed, clock_us):
    metrics = {
        "util.clock.events": {"value": 9.8, "unit": "1/op"},
        "util.clock.self_us": {"value": clock_us, "unit": "us"},
        "platforms.s60.calls": {"value": 0.0, "unit": "1/op"},
    }
    path = tmp_path / f"trace-{name}-{seed}.json"
    path.write_text(
        json.dumps(
            {
                "seed": seed,
                "trace": 1,
                "workloads": {
                    "fleet_distrib": {"digest": f"d{seed}", "metrics": metrics},
                    "fig10_calls": {"digest": f"f{seed}", "metrics": {}, "details": {}},
                },
            }
        )
    )
    return str(path)


def test_traced_runs_give_per_layer_medians(tmp_path, capsys):
    base = [_traced(tmp_path, "base", s, us) for s, us in ((1, 58.0), (2, 56.0))]
    new = [_traced(tmp_path, "new", s, us) for s, us in ((1, 36.0), (2, 34.0))]
    assert main(["--base", *base, "--new", *new]) == 0
    out = capsys.readouterr().out
    assert out.count("match") == 4
    assert "fig10_calls, medians" not in out
    assert "per-layer medians over 2 base / 2 new traced runs" in out
    assert (
        "fleet_distrib    util.clock.events                          1/op         9.8"
        "        9.8    +0.0%" in out
    )
    assert (
        "fleet_distrib    util.clock.self_us                         us            57"
        "         35   -38.6%" in out
    )
    assert "platforms.s60.calls" not in out
