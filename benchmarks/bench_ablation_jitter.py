"""Ablation: Figure-10 shape robustness under latency jitter.

The main Figure-10 bench runs with deterministic calibrated latencies.
Real handsets jitter; this ablation re-runs the measurement with 10 %
Gaussian jitter on every native latency and checks that the *shape*
conclusions survive: per-platform orderings hold on medians, and the
proxy overhead stays a small fraction of the native call.
"""

import statistics

from benchmarks.bench_fig10_invocation_overhead import measure_bar
from repro.bench.harness import APIS, Fig10Runner, PLATFORMS, format_table


def _median_total(samples):
    return statistics.median(virtual + real for virtual, real in samples)


def test_fig10_shape_survives_jitter(benchmark):
    runner = Fig10Runner(jitter_fraction=0.10)

    def run():
        results = {}
        for platform in PLATFORMS:
            for api in APIS:
                samples = measure_bar(
                    runner, platform, api, with_proxy=False, repetitions=40
                )
                results[(api, platform)] = _median_total(samples)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [api, platform, f"{results[(api, platform)]:.1f}"]
        for platform in PLATFORMS
        for api in APIS
    ]
    print("\n\n=== Ablation: Figure-10 medians under 10% latency jitter ===")
    print(format_table(["API", "platform", "median ms"], rows))

    # The paper's cross-platform orderings hold despite jitter.
    for api in ("addProximityAlert", "getLocation"):
        assert (
            results[(api, "android")]
            < results[(api, "webview")]
            < results[(api, "s60")]
        )
    assert (
        results[("sendSMS", "s60")]
        < results[("sendSMS", "android")]
        < results[("sendSMS", "webview")]
    )


def test_proxy_overhead_fraction_under_jitter(benchmark):
    runner = Fig10Runner(jitter_fraction=0.10)

    def run():
        without = measure_bar(
            runner, "s60", "getLocation", with_proxy=False, repetitions=40
        )
        with_proxy = measure_bar(
            runner, "s60", "getLocation", with_proxy=True, repetitions=40
        )
        return (
            _median_total(without),
            _median_total(with_proxy),
            statistics.median(real for _, real in with_proxy),
        )

    median_without, median_with, real_overhead = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print(
        f"\n  s60/getLocation under jitter: without={median_without:.1f}ms "
        f"with={median_with:.1f}ms realProxyOverhead={real_overhead:.4f}ms"
    )
    # The measured real proxy overhead stays tiny regardless of jitter.
    assert real_overhead < 0.05 * median_without
