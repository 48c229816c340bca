"""Benchmark harness: Figure-10 calibration and runners."""

from repro.bench.calibration import (
    PAPER_FIGURE_10,
    figure10_android_latency,
    figure10_s60_latency,
    figure10_webview_bridge_latency,
)
from repro.bench.harness import Fig10Runner, format_table

__all__ = [
    "Fig10Runner",
    "PAPER_FIGURE_10",
    "figure10_android_latency",
    "figure10_s60_latency",
    "figure10_webview_bridge_latency",
    "format_table",
]
