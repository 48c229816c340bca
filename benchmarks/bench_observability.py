"""Observability overhead on the Figure-10 hot path.

The tentpole claim: the default (disabled) state is near-zero-cost — an
instrumentation site pays one ``tracer.enabled`` attribute read and a
branch.  Two tiers are measured on the same Android Location binding:

* ``disabled`` — the default hub (no-op tracer, live registry): what
  every pre-observability caller now pays;
* ``tracing``  — a recording tracer: the full span tree per invocation.

Micro tiers isolate the tracer itself: a no-op span vs. a recorded
span vs. a counter increment.  On top of the tiers, the pipeline
comparison times the two production postures end to end — full tracing
(retain every span, export everything) against the streaming telemetry
pipeline at a 1% head rate (bounded ring, export only what sampling
kept) — and asserts the sampled posture's per-invocation cost is
strictly below full tracing's.

The last case writes ``BENCH_observability.json`` (see
docs/PERFORMANCE.md): deterministic traced span accounting and sampling
accounting under ``metrics``, wall-clock micro timings and the
sampled-vs-full comparison under ``measured``.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_observability.py
"""

import os
import time

import pytest

from repro.apps.workforce import scenario
from repro.bench.results import BenchResult, write_bench_result
from repro.core.proxies import create_proxy
from repro.obs import (
    MetricsRegistry,
    NOOP_TRACER,
    Observability,
    OverheadProfile,
    PipelineConfig,
    Tracer,
)
from repro.util.clock import SimulatedClock

pytestmark = pytest.mark.obs

TIERS = {
    "disabled": lambda: Observability.disabled(),
    "tracing": lambda: Observability(),
}


def _location_proxy(hub):
    sc = scenario.build_android(observability=hub)
    sc.platform.run_for(5_000.0)  # let the GPS produce a first fix
    proxy = create_proxy("Location", sc.platform)
    proxy.set_property("context", sc.new_context())
    proxy.set_property("provider", "gps")
    return proxy


@pytest.mark.parametrize("tier", list(TIERS), ids=list(TIERS))
def test_get_location_overhead(benchmark, tier):
    """Full proxied getLocation (the Figure-10 bar) under each tier."""
    hub = TIERS[tier]()
    proxy = _location_proxy(hub)

    if hub.enabled:
        # Keep memory flat across benchmark rounds: drop recorded spans.
        def one_invocation():
            result = proxy.get_location()
            hub.tracer.reset()
            return result

    else:
        one_invocation = proxy.get_location

    assert benchmark(one_invocation) is not None
    if hub.enabled:
        assert not hub.tracer.spans  # reset kept the trace buffer empty


def test_noop_span_micro(benchmark):
    """The no-op guard pattern every instrumentation site uses."""

    def guarded_site():
        if NOOP_TRACER.enabled:  # pragma: no cover - never taken
            with NOOP_TRACER.span("op"):
                pass
        return True

    assert benchmark(guarded_site)


def test_recorded_span_micro(benchmark):
    """One recorded span: open, stamp, close (virtual clock only)."""
    tracer = Tracer(SimulatedClock())

    def one_span():
        with tracer.span("op", key="value"):
            pass
        tracer.reset()

    benchmark(one_span)


def test_counter_inc_micro(benchmark):
    """The hot-path registry op: resolve-and-increment one counter."""
    registry = MetricsRegistry()

    def inc():
        registry.counter("resilience.attempts", runtime="bench").inc()

    benchmark(inc)
    assert registry.total("resilience.attempts") > 0


def _micro_ms(fn, rounds: int = 2_000) -> float:
    """Mean wall-clock cost of ``fn`` in ms (bench-only; never in src)."""
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) * 1_000.0 / rounds


#: Invocations per posture in the sampled-vs-full comparison.  Export
#: cost amortizes over these, so the count must be large enough that
#: serializing ~5 spans/invocation (full) vs ~1% of that (sampled)
#: dominates run-to-run noise.
PIPELINE_INVOCATIONS = 600
SAMPLE_RATE = 0.01
SAMPLE_SEED = 17


def _posture_ms(sampled: bool, invocations: int = PIPELINE_INVOCATIONS):
    """Per-invocation wall-clock cost of one telemetry posture, export
    included; returns ``(ms, pipeline-or-None, exported_line_count)``."""
    hub = Observability()
    pipeline = None
    if sampled:
        pipeline = hub.install_pipeline(
            PipelineConfig(
                default_rate=SAMPLE_RATE, seed=SAMPLE_SEED, streaming=True
            )
        )
    proxy = _location_proxy(hub)
    start = time.perf_counter()
    for _ in range(invocations):
        proxy.get_location()
    payload = pipeline.export_jsonl() if sampled else hub.export_jsonl()
    elapsed_ms = (time.perf_counter() - start) * 1_000.0
    return elapsed_ms / invocations, pipeline, payload.count("\n")


def test_sampled_vs_full_tracing_overhead():
    """The tentpole perf claim: streaming 1% sampling costs strictly
    less per invocation than full tracing (which pays list growth plus
    serialization of every span at export)."""
    full_ms, _, full_lines = _posture_ms(sampled=False)
    sampled_ms, pipeline, sampled_lines = _posture_ms(sampled=True)
    accounting = pipeline.accounting()
    # Same seed, same traffic → the keep/drop decisions (and therefore
    # the exported line count) are a pure function of the config.
    assert accounting["traces_total"] >= PIPELINE_INVOCATIONS
    assert 0 < accounting["traces_kept"] < accounting["traces_total"]
    assert sampled_lines < full_lines
    assert sampled_ms < full_ms, (
        f"sampled tracing must beat full tracing: "
        f"{sampled_ms:.6f}ms >= {full_ms:.6f}ms per invocation"
    )


def test_bench_observability_result():
    """Write BENCH_observability.json: traced span accounting, sampling
    accounting, micro timings and the sampled-vs-full comparison."""
    repetitions = 5
    hub = Observability()
    proxy = _location_proxy(hub)
    hub.tracer.reset()
    for _ in range(repetitions):
        proxy.get_location()
    profile = OverheadProfile.from_spans(hub.tracer.finished_spans())
    entry = profile.operations[("getLocation", "android")]
    assert entry.invocations == repetitions

    tracer = Tracer(SimulatedClock())

    def recorded_span():
        with tracer.span("op"):
            pass
        tracer.reset()

    registry = MetricsRegistry()
    full_ms, _, _ = _posture_ms(sampled=False)
    sampled_ms, pipeline, _ = _posture_ms(sampled=True)
    result = BenchResult(
        name="observability",
        params={
            "repetitions": repetitions,
            "pipeline_invocations": PIPELINE_INVOCATIONS,
            "sample_rate": SAMPLE_RATE,
            "sample_seed": SAMPLE_SEED,
        },
        metrics={
            "getLocation_android": entry.to_dict(),
            "spans_per_invocation": sum(entry.layer_spans.values()) / repetitions,
            "profile": profile.to_dict(),
            # Deterministic: keep/drop is a seeded pure function of the
            # (identical) trace stream, so these counts are byte-stable.
            "sampling": pipeline.accounting(),
        },
        measured={
            "noop_span_ms": _micro_ms(
                lambda: NOOP_TRACER.span("op") if NOOP_TRACER.enabled else None
            ),
            "recorded_span_ms": _micro_ms(recorded_span),
            "counter_inc_ms": _micro_ms(
                lambda: registry.counter("resilience.attempts", runtime="bench").inc()
            ),
            "full_tracing_ms_per_invocation": full_ms,
            "sampled_tracing_ms_per_invocation": sampled_ms,
            "sampling_speedup": full_ms / sampled_ms if sampled_ms else 0.0,
        },
    )
    path = write_bench_result(
        result,
        include_measured=not os.environ.get("REPRO_BENCH_DETERMINISTIC"),
    )
    print(f"\nwrote {path}")
