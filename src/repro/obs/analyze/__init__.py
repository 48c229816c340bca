"""Trace analytics over the observability plane.

Everything here is *post-hoc*: it consumes the span trees and metric
series the PR-2 plane records and answers the paper's evaluation
question — how much time does the middleware layer add on top of the
native call (Figure 10) — directly from traces:

* :mod:`repro.obs.analyze.overhead` — folds each ``dispatch:*`` span
  tree into exclusive self-time per layer (dispatch / resilience /
  binding / bridge / substrate) and aggregates per
  operation × platform, with exact nearest-rank latency percentiles
  (:func:`repro.obs.metrics.nearest_rank`) and collapsed-stack
  (flamegraph) and top-N text views;
* :mod:`repro.obs.analyze.slo` — declarative latency/error-budget SLOs
  evaluated over sliding virtual-time windows;
* :mod:`repro.obs.analyze.diff` — profile diff and the perf-regression
  gate the CI bench smoke runs in report-only mode;
* :mod:`repro.obs.analyze.critical_path` — the chain of lane segments
  that exactly explains a concurrent drain's makespan, plus per-span
  slack (see ``docs/CONCURRENCY.md``);
* :mod:`repro.obs.analyze.admission` — shed / throttle / autoscale
  breakdown folded from the admission plane's span events (see
  ``docs/ADMISSION.md``);
* :mod:`repro.obs.analyze.causal` — the one cross-region analyzer:
  the happens-before graph, exact write→visibility latency percentiles,
  gossip convergence paths, saga decomposition, the causality-violation
  audit and the replication-lag / gossip / partition / dedup / saga
  tables folded from the distributed tier's spans and events (see
  ``docs/DISTRIBUTION.md``).

The determinism contract extends here: no wall-clock reads (policed
by ``tests/test_wallclock_lint.py`` over all of ``src/repro``), no
unseeded RNGs (policed by ``tests/chaos/test_determinism_lint.py``,
whose scope includes all of ``obs/``) — two identically-seeded runs
produce byte-identical profiles.

CLI: ``python -m repro.obs {profile,slo,diff,timeline,critical-path,
flight,admission,causal,scenario,health}`` operates on exported JSONL
trace files (see ``docs/PERFORMANCE.md``).
"""

from repro.obs.analyze.admission import AdmissionReport, render_admission_text
from repro.obs.analyze.causal import (
    CAUSAL_SCHEMA,
    CausalReport,
    render_causal_text,
)
from repro.obs.analyze.critical_path import (
    CRITICAL_PATH_SCHEMA,
    CriticalPath,
    PathStep,
)
from repro.obs.analyze.diff import (
    LayerDelta,
    ProfileDiff,
    diff_profiles,
    load_profile,
)
from repro.obs.analyze.overhead import (
    LAYERS,
    OperationProfile,
    OverheadProfile,
    collapsed_stacks,
    parse_jsonl,
    render_profile_text,
    top_spans_text,
)
from repro.obs.analyze.slo import SloEngine, SloSpec, SloStatus

__all__ = [
    "AdmissionReport",
    "CAUSAL_SCHEMA",
    "CRITICAL_PATH_SCHEMA",
    "CausalReport",
    "CriticalPath",
    "LAYERS",
    "LayerDelta",
    "PathStep",
    "OperationProfile",
    "OverheadProfile",
    "ProfileDiff",
    "SloEngine",
    "SloSpec",
    "SloStatus",
    "collapsed_stacks",
    "diff_profiles",
    "load_profile",
    "parse_jsonl",
    "render_admission_text",
    "render_causal_text",
    "render_profile_text",
    "top_spans_text",
]
