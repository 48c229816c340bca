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
