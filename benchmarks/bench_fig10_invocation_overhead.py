"""Figure 10 reproduction: API invocation time with vs. without proxies.

The paper's chart has nine bar pairs: {addProximityAlert, getLocation,
sendSMS} × {Android, Android WebView, Nokia S60}.  Each pytest-benchmark
case here times the *with-proxy* invocation path (real Python execution on
top of the calibrated virtual native charge).  ``measure_bar`` is the
per-bar loop that records each call's virtual charge and wall time;
the summary case runs it for every bar, regenerates the full table and
checks the shape criteria from DESIGN.md:

(a) with-proxy ≥ without-proxy for every bar,
(b) the proxy delta is a small fraction of the native latency,
(c) per-platform native ordering matches the paper's bars exactly
    (they are calibrated, so this also guards the calibration plumbing).

The summary case also writes ``BENCH_fig10.json`` (schema in
docs/PERFORMANCE.md): deterministic virtual-time bars plus the traced
per-layer overhead profile under ``metrics``, wall-clock medians under
``measured``.  Set ``REPRO_BENCH_DETERMINISTIC=1`` to drop the
``measured`` half so identically-seeded runs emit byte-identical files.
"""

import os
import statistics
import time
from typing import Dict, List, Tuple

import pytest

from repro.bench.calibration import PAPER_FIGURE_10
from repro.bench.harness import APIS, Fig10Runner, PLATFORMS, format_table
from repro.bench.results import BenchResult, write_bench_result
from repro.obs import OverheadProfile


def measure_bar(
    runner: Fig10Runner,
    platform: str,
    api: str,
    *,
    with_proxy: bool,
    repetitions: int,
) -> List[Tuple[float, float]]:
    """Each call's ``(virtual_ms, real_ms)`` for one bar of Figure 10.

    ``virtual_ms`` is the native charge the call adds to the simulated
    clock; ``real_ms`` is the wall time the call path takes to run.  One
    warm-up call comes first (the paper averaged repeated runs), and
    cleanup runs after every call, outside the timed region.
    """
    bench = runner._bench_for(platform, with_proxy)
    invoke = bench.invoke[api]
    cleanup = bench.cleanup.get(api)
    invoke()
    if cleanup is not None:
        cleanup()
    samples: List[Tuple[float, float]] = []
    for _ in range(repetitions):
        virtual_before = bench.clock_now()
        real_before = time.perf_counter()
        invoke()
        real_ms = (time.perf_counter() - real_before) * 1_000.0
        samples.append((bench.clock_now() - virtual_before, real_ms))
        if cleanup is not None:
            cleanup()
    return samples


def measure_figure(
    runner: Fig10Runner, repetitions: int
) -> Dict[Tuple[str, str, str], Dict[str, float]]:
    """Every bar, split into its two cost components:
    ``(api, platform, mode) → {virtual_ms, real_ms, total_ms}`` (medians).
    The virtual component is deterministic when the latency models carry
    no jitter; the real component is the wall-clock Python cost.  The
    paper's proxy cost was milliseconds and ours is microseconds, so the
    median over many repetitions keeps scheduler noise below the signal."""
    results: Dict[Tuple[str, str, str], Dict[str, float]] = {}
    for platform in PLATFORMS:
        for with_proxy in (False, True):
            mode = "with" if with_proxy else "without"
            for api in APIS:
                samples = measure_bar(
                    runner, platform, api,
                    with_proxy=with_proxy, repetitions=repetitions,
                )
                results[(api, platform, mode)] = {
                    "virtual_ms": statistics.median(v for v, _ in samples),
                    "real_ms": statistics.median(r for _, r in samples),
                    "total_ms": statistics.median(v + r for v, r in samples),
                }
    return results


@pytest.fixture(scope="module")
def runner():
    return Fig10Runner()


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("api", APIS)
def test_fig10_with_proxy_invocation(benchmark, runner, platform, api):
    """Time one proxied invocation (real time; virtual charge is constant)."""
    bench = runner._bench_for(platform, with_proxy=True)
    invoke = bench.invoke[api]
    cleanup = bench.cleanup.get(api)

    def one_invocation():
        invoke()
        if cleanup is not None:
            cleanup()

    benchmark(one_invocation)


@pytest.mark.parametrize("platform", PLATFORMS)
def test_fig10_runtime_parity(runner, platform):
    """The concurrency runtime adds no modelled latency of its own: a
    single-shard dispatcher replays each invocation's captured virtual
    charge verbatim, so the per-call cost equals the direct proxy call."""
    out = runner.run_via_runtime(platform, "getLocation", repetitions=5)
    assert out["runtime_ms"] == pytest.approx(out["direct_ms"]), (
        f"{platform}: dispatch through the runtime changed the virtual charge"
    )


def test_fig10_full_reproduction(benchmark, runner, fig10_reps):
    """Regenerate the whole figure and verify the shape criteria."""
    detailed = benchmark.pedantic(
        lambda: measure_figure(runner, fig10_reps), rounds=1, iterations=1
    )
    results = {key: value["total_ms"] for key, value in detailed.items()}

    headers = [
        "API", "Platform",
        "paper w/o", "ours w/o", "paper w/", "ours w/",
        "paper ovh", "ours ovh",
    ]
    rows = []
    for platform in PLATFORMS:
        for api in APIS:
            paper_without, paper_with = PAPER_FIGURE_10[(api, platform)]
            ours_without = results[(api, platform, "without")]
            ours_with = results[(api, platform, "with")]
            rows.append(
                [
                    api, platform,
                    f"{paper_without:.1f}", f"{ours_without:.2f}",
                    f"{paper_with:.1f}", f"{ours_with:.2f}",
                    f"{paper_with - paper_without:.1f}",
                    f"{ours_with - ours_without:.3f}",
                ]
            )
    print("\n\n=== Figure 10: API invocation time, ms (paper vs measured) ===")
    print(format_table(headers, rows))

    for platform in PLATFORMS:
        for api in APIS:
            paper_without, __ = PAPER_FIGURE_10[(api, platform)]
            ours_without = results[(api, platform, "without")]
            ours_with = results[(api, platform, "with")]
            # (c) native bars match the paper's without-proxy bars
            assert ours_without == pytest.approx(paper_without, rel=0.02), (
                f"{api}/{platform} native latency off"
            )
            # (a) proxy never *saves* time (tolerate sub-µs timer noise)
            assert ours_with >= ours_without - 0.01, (
                f"{api}/{platform}: proxy faster than native?"
            )
            # (b) overhead a small fraction of the native call (<5%;
            # the paper's handset measured 0.2-8%)
            overhead = ours_with - ours_without
            assert overhead < 0.05 * ours_without, (
                f"{api}/{platform}: overhead {overhead:.3f}ms too large"
            )

    # ordering *between* platforms follows the paper: the S60 location
    # stack is the slowest, Android native the fastest, WebView between.
    for api in ("addProximityAlert", "getLocation"):
        assert (
            results[(api, "android", "without")]
            < results[(api, "webview", "without")]
            < results[(api, "s60", "without")]
        )
    # ...while S60's SMS path is the fastest of the three (paper's crossover)
    assert (
        results[("sendSMS", "s60", "without")]
        < results[("sendSMS", "android", "without")]
        < results[("sendSMS", "webview", "without")]
    )

    # -- the machine-readable trajectory artifact ---------------------------
    profile = OverheadProfile.from_jsonl(runner.trace(repetitions=fig10_reps))
    result = BenchResult(
        name="fig10",
        params={"repetitions": fig10_reps},
        metrics={
            "invocation_virtual_ms": {
                f"{api}/{platform}/{mode}": value["virtual_ms"]
                for (api, platform, mode), value in sorted(detailed.items())
            },
            "profile": profile.to_dict(),
        },
        measured={
            "invocation_real_ms": {
                f"{api}/{platform}/{mode}": value["real_ms"]
                for (api, platform, mode), value in sorted(detailed.items())
            },
            "invocation_total_ms": {
                f"{api}/{platform}/{mode}": value["total_ms"]
                for (api, platform, mode), value in sorted(detailed.items())
            },
        },
    )
    path = write_bench_result(
        result,
        include_measured=not os.environ.get("REPRO_BENCH_DETERMINISTIC"),
    )
    print(f"\nwrote {path}")
