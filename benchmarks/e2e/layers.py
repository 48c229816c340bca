"""Per-layer tracing from outside the program.

:meth:`LayerTracer.install` replaces public entry points of every layer
(class attributes and module-level names, resolved where callers look
them up) with thin wrappers that keep a span stack in memory.  A span is
(layer, name, start, end, parent); a layer's *self time* is its span
durations minus the part covered by child spans, so the self times of
all layers plus the time no wrapper covers add up to the traced wall
time.  Counts are taken at the same boundaries, and the counters the
program already keeps (runtime, admission, distrib, telemetry pipeline)
are harvested from the objects created during each timed round.

An entry point the program no longer has is skipped and listed in
:attr:`LayerTracer.missing`: its layer then reads low and
``trace.unattributed_frac`` high, instead of the traced run failing.

Install before any world is built: schedulers capture bound methods
(GPS fix timers, cooperative drains) when they are armed.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept for the JSONL export (aggregates cover every span).
SPAN_CAP = 50_000

#: layer → (its self-time metric, entry points as ``module:Qualified.name``).
#: A spec naming a module-level function patches that module's global, so
#: it must name the module whose code calls it.  ``core.proxies`` is not
#: listed: every public method of every MProxy subclass is its entry point.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "core.descriptor": ("core.descriptor.self_us", (
        "repro.core.proxy.base:MProxy._validate_arguments",
        "repro.core.descriptor.model:PropertySpec.validate_value",
        "repro.core.descriptor.registry:ProxyRegistry.register_xml",
    )),
    "core.resilience": ("core.resilience.self_us", (
        "repro.core.resilience.policy:ResilienceRuntime.execute",
    )),
    "platforms.android": ("platforms.android.self_us", (
        "repro.platforms.android.location:LocationManager.get_current_location",
        "repro.platforms.android.location:LocationManager.get_last_known_location",
        "repro.platforms.android.location:LocationManager.add_proximity_alert",
        "repro.platforms.android.location:LocationManager.remove_proximity_alert",
        "repro.platforms.android.telephony:SmsManager.send_text_message",
        "repro.platforms.android.telephony:IPhone.call",
        "repro.platforms.android.http:HttpClient.execute",
        "repro.platforms.android.context:Context.get_system_service",
        "repro.platforms.android.context:Context.register_receiver",
        "repro.platforms.android.context:Context.unregister_receiver",
        "repro.platforms.android.intents:BroadcastRegistry.broadcast",
        "repro.platforms.android.platform:AndroidPlatform.sms_manager",
        "repro.platforms.android.platform:AndroidPlatform.http_client",
    )),
    "platforms.s60": ("platforms.s60.self_us", (
        "repro.platforms.s60.location:LocationProvider.get_location",
        "repro.platforms.s60.location:LocationProviderStatics.get_instance",
        "repro.platforms.s60.location:LocationProviderStatics.add_proximity_listener",
        "repro.platforms.s60.location:LocationProviderStatics.remove_proximity_listener",
        "repro.platforms.s60.connector:Connector.open",
        "repro.platforms.s60.connector:HttpConnection.get_response_code",
        "repro.platforms.s60.connector:HttpConnection.open_input_stream",
        "repro.platforms.s60.messaging:MessageConnection.new_message",
        "repro.platforms.s60.messaging:MessageConnection.send",
        "repro.platforms.s60.messaging:MessageConnection.close",
    )),
    "platforms.webview": ("platforms.webview.self_us", (
        "repro.platforms.webview.bridge:JsBridgeObject.__getattr__",
        "repro.platforms.webview.bridge:_BridgeMethod.__call__",
        "repro.platforms.webview.notifications:NotificationTable.post",
        "repro.platforms.webview.notifications:NotificationTable.drain_json",
    )),
    "device": ("device.self_us", (
        "repro.device.network:SimulatedNetwork.request",
        "repro.device.network:SimulatedNetwork.request_async",
        "repro.device.messaging:SmsCenter.submit",
        "repro.device.gps:GpsReceiver._emit_fix",
    )),
    "runtime.submit": ("runtime.submit_self_us", (
        "repro.runtime.dispatcher:Dispatcher.submit",
        "repro.runtime:ConcurrencyRuntime.submit_invocation",
        "repro.runtime:ConcurrencyRuntime.http_get",
        "repro.runtime:ConcurrencyRuntime.get_location",
    )),
    "runtime.dispatch": ("runtime.dispatch_self_us", (
        "repro.runtime.dispatcher:Dispatcher._run_head",
        "repro.runtime.dispatcher:Dispatcher._settle",
    )),
    "runtime.scheduler": ("runtime.scheduler_self_us", (
        "repro.runtime:ConcurrencyRuntime.drain",
        "repro.runtime.scheduler:CooperativeScheduler._drain",
        "repro.runtime.scheduler:CooperativeScheduler._step",
    )),
    "runtime.admission": ("runtime.admission.self_us", (
        "repro.runtime.admission.controller:AdmissionController.admit",
        "repro.runtime.admission.autoscaler:ShardAutoscaler.evaluate",
    )),
    "distrib.put": ("distrib.put_self_us", (
        "repro.distrib.replication:ReplicatedTable.put",
    )),
    "distrib.gossip": ("distrib.gossip_self_us", (
        "repro.distrib.runtime:DistribRuntime.tick",
        "repro.distrib.replication:ReplicatedTable.anti_entropy_sweep",
    )),
    "distrib.causal": ("distrib.causal_self_us", (
        "repro.distrib.causal:CausalTracker.note_write",
        "repro.distrib.causal:CausalTracker.note_visible",
        "repro.distrib.causal:CausalTracker.observe",
        "repro.distrib.causal:CausalMonitor.check_cache_read",
        "repro.distrib.causal:CausalMonitor.check_lww",
    )),
    "distrib.cache": ("distrib.cache_self_us", (
        "repro.distrib.cache:TieredCache.get",
        "repro.distrib.cache:TieredCache.put",
        "repro.distrib.idempotency:IdempotencyStore.execute",
    )),
    "obs.tracer": ("obs.tracer_self_us", (
        "repro.obs.tracer:Tracer.start_span",
        "repro.obs.tracer:Tracer.end_span",
        "repro.obs.tracer:Tracer.event",
    )),
    "obs.pipeline": ("obs.pipeline_self_us", (
        "repro.obs.pipeline.pipeline:TelemetryPipeline.record_span",
    )),
    "obs.metrics": ("obs.metrics_self_us", (
        "repro.obs.metrics:Histogram.observe",
    )),
    "util.clock": ("util.clock.self_us", ("repro.util.clock:Scheduler.run_until",)),
    "scenario.build": ("scenario.build_self_us", ("repro.scenario.recorder:build_world",)),
    "scenario.step": ("scenario.step_self_us", ("repro.scenario.recorder:execute",)),
    "scenario.diff": ("scenario.diff_self_us", ("repro.scenario.replay:diff_recordings",)),
    "scenario.replay": ("scenario.replay_self_us", ("repro.scenario.replay:replay",)),
    "apps.workforce": ("apps.workforce.self_us", (
        "repro.apps.workforce.fleet:build_fleet",
        "repro.apps.workforce.fleet:launch_fleet_on_runtime",
        "repro.apps.workforce.proxied:WorkforceLogic.proximity_event",
        "repro.apps.workforce.proxied:WorkforceLogic.report_location",
        "repro.device.network:VirtualServer.handle",
    )),
}

#: Entry points whose calls are counted under their own name; calls into
#: any other entry point count as ``calls.<layer>``.
COUNTED = {
    "repro.core.proxy.base:MProxy._validate_arguments": "descriptor.validations",
    "repro.core.descriptor.model:PropertySpec.validate_value": "descriptor.validations",
    "repro.core.resilience.policy:ResilienceRuntime.execute": "resilience.calls",
    "repro.platforms.webview.bridge:_BridgeMethod.__call__": "webview.crossings",
    "repro.device.network:SimulatedNetwork.request": "network.requests",
    "repro.device.network:SimulatedNetwork.request_async": "network.requests",
    "repro.device.messaging:SmsCenter.submit": "sms.submits",
    "repro.runtime.dispatcher:Dispatcher.submit": "runtime.submits",
    "repro.runtime.scheduler:CooperativeScheduler._step": "runtime.task_steps",
    "repro.distrib.replication:ReplicatedTable.put": "distrib.puts",
    "repro.distrib.replication:ReplicatedTable.anti_entropy_sweep": "distrib.sweeps",
    "repro.obs.tracer:Tracer.start_span": "obs.spans",
    "repro.obs.metrics:Histogram.observe": "obs.observes",
    "repro.scenario.recorder:build_world": "scenario.world_builds",
}

#: Modules whose MProxy subclasses are the proxy layer (every public
#: method each subclass defines is wrapped).
PROXY_MODULES = tuple(
    f"repro.core.proxies.{interface}.{platform}"
    for interface in ("location", "sms", "call", "http", "contacts", "calendar")
    for platform in ("android", "s60", "webview")
    if (interface, platform) != ("call", "s60")
)

#: layer → self-time metric, for every layer that owns self time.
SELF_METRICS = {"core.proxies": "core.proxies.self_us"}
SELF_METRICS.update({layer: metric for layer, (metric, _) in LAYERS.items()})


def _resolve(spec: str) -> Tuple[Any, str]:
    """``module:Qual.attr`` → (owner object, attribute name)."""
    module_name, _, qualname = spec.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, attr)
    return owner, attr


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerTracer:
    """In-memory span stack plus per-layer aggregates for one process."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.errors: Dict[str, int] = defaultdict(int)
        self.spans: List[list] = []
        self.parse_ns = 0
        #: Entry points not found in the program (see the module docstring).
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._origin_ns = 0
        self._snapshot: Optional[tuple] = None
        self._runtimes: List[Any] = []
        self._pipelines: List[Any] = []
        self._wait_p99s: List[float] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn: Callable, layer: str, count: str) -> Callable:
        stack, spans = self._stack, self.spans
        self_ns, counts, errors = self.self_ns, self.counts, self.errors
        clock = time.perf_counter_ns
        name = getattr(fn, "__qualname__", repr(fn))

        # The clock is read first and last, so the wrapper's own
        # bookkeeping counts as the layer's time, not as unattributed.
        def wrapper(*args, **kwargs):
            frame = [clock(), 0, -1]
            if len(spans) < SPAN_CAP:
                frame[2] = len(spans)
                spans.append([layer, name, stack[-1][2] if stack else -1, 0, 0])
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                stack.pop()
                counts[count] += 1
                end = clock()
                duration = end - frame[0]
                self_ns[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if frame[2] >= 0:
                    spans[frame[2]][3] = frame[0]
                    spans[frame[2]][4] = end

        return functools.update_wrapper(wrapper, fn)

    def _after(self, fn: Callable, hook: Callable[[tuple, Any], None]) -> Callable:
        """Call ``hook(args, result)`` after every successful call."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, spec: str, make: Callable[[Callable], Callable]) -> None:
        try:
            owner, attr = _resolve(spec)
        except (ImportError, AttributeError):
            self.missing.append(spec)
            return
        setattr(owner, attr, make(getattr(owner, attr)))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; call before building any world."""
        counts = self.counts
        # Descriptor parsing is lazy (first proxy built), so it lands in
        # set-up; its wall time is kept outside the per-round reset.
        self._patch(
            "repro.core.descriptor.registry:ProxyRegistry.register_xml",
            self._timed_parse,
        )
        for layer, (_, specs) in LAYERS.items():
            for spec in specs:
                count = COUNTED.get(spec, f"calls.{layer}")
                self._patch(
                    spec, lambda fn, layer=layer, count=count: self._span(fn, layer, count)
                )
        self._install_proxies()

        def count_retry(args, delay):
            counts["resilience.retries"] += 1

        def count_events(args, executed):
            counts["clock.events"] += executed

        def count_gps_reads(prop):
            def read(receiver):
                counts["gps.reads"] += 1
                return prop.fget(receiver)

            return property(read, prop.fset, prop.fdel, prop.__doc__)

        self._patch("repro.device.gps:GpsReceiver.last_fix", count_gps_reads)
        self._patch(
            "repro.core.resilience.backoff:BackoffSchedule.delay_ms",
            lambda fn: self._after(fn, count_retry),
        )
        self._patch(
            "repro.core.resilience.policy:ResilienceRuntime.execute",
            self._track_retry_outcome,
        )
        self._patch(
            "repro.core.resilience.breaker:CircuitBreaker.record_failure",
            self._count_breaker_opens,
        )
        self._patch(
            "repro.platforms.webview.notifications:NotificationTable.drain",
            lambda fn: self._after(fn, self._count_drain),
        )
        self._patch(
            "repro.util.clock:Scheduler.run_until",
            lambda fn: self._after(fn, count_events),
        )
        self._patch(
            "repro.runtime:ConcurrencyRuntime.__init__",
            lambda fn: self._after(fn, lambda args, _: self._runtimes.append(args[0])),
        )
        self._patch(
            "repro.obs.pipeline.pipeline:TelemetryPipeline.__init__",
            lambda fn: self._after(fn, lambda args, _: self._pipelines.append(args[0])),
        )

    def _timed_parse(self, fn: Callable) -> Callable:
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.parse_ns += clock() - start

        return functools.update_wrapper(wrapper, fn)

    def _install_proxies(self) -> None:
        from repro.core.proxy.base import MProxy

        for module_name in PROXY_MODULES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            platform = module_name.rsplit(".", 1)[1]
            for cls in vars(module).values():
                if not (
                    isinstance(cls, type)
                    and issubclass(cls, MProxy)
                    and cls.__module__ == module_name
                ):
                    continue
                for attr, value in list(vars(cls).items()):
                    if attr.startswith("_") or not callable(value):
                        continue
                    if isinstance(value, (classmethod, staticmethod)):
                        continue
                    setattr(
                        cls,
                        attr,
                        self._span(value, "core.proxies", f"proxies.calls.{platform}"),
                    )

    def _track_retry_outcome(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = counts["resilience.retries"]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if counts["resilience.retries"] != before:
                    counts["resilience.retried"] += 1
                raise
            if counts["resilience.retries"] != before:
                counts["resilience.retried"] += 1
                counts["resilience.retried_ok"] += 1
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count_breaker_opens(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(breaker, *args, **kwargs):
            before = len(breaker.transitions)
            result = fn(breaker, *args, **kwargs)
            for _, _, to_state in breaker.transitions[before:]:
                if to_state.value == "open":
                    counts["resilience.breaker_opens"] += 1
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count_drain(self, args: tuple, drained: list) -> None:
        self.counts["webview.drains"] += 1
        self.counts["webview.notifications"] += len(drained)
        if not drained:
            self.counts["webview.empty_drains"] += 1

    # -- phases --------------------------------------------------------------

    def begin(self) -> None:
        """Start the timed phase: drop everything recorded during set-up."""
        self.self_ns.clear()
        self.counts.clear()
        self.errors.clear()
        self.spans.clear()
        self._runtimes.clear()
        self._pipelines.clear()
        self._wait_p99s.clear()
        self._origin_ns = time.perf_counter_ns()

    def pause(self) -> None:
        """Untimed work follows (checks, world rebuilds): remember the
        aggregates so :meth:`resume` can discard what it records."""
        self._snapshot = (
            dict(self.self_ns), dict(self.counts), dict(self.errors), len(self.spans)
        )

    def resume(self) -> None:
        self_ns, counts, errors, span_count = self._snapshot
        for current, saved in (
            (self.self_ns, self_ns), (self.counts, counts), (self.errors, errors)
        ):
            current.clear()
            current.update(saved)
        del self.spans[span_count:]
        self._runtimes.clear()
        self._pipelines.clear()

    def harvest(self) -> None:
        """Fold the counters of runtimes and pipelines created since the
        last harvest into the aggregates, then let the objects go."""
        counts = self.counts
        for runtime in self._runtimes:
            metrics = runtime.observability.metrics
            for name in (
                "runtime.submitted",
                "runtime.coalesced",
                "runtime.shed",
                "runtime.location_cache_hits",
                "runtime.location_cache_misses",
                "admission.autoscale_resizes",
                "distrib.dedup_hits",
                "distrib.dedup_misses",
            ):
                counts[name] += metrics.total(name)
            for labels, value in metrics.counter_values("admission.shed").items():
                if ("reason", "evicted") in labels:
                    counts["admission.evicted"] += value
            for dispatcher in runtime.dispatchers().values():
                outcomes = dispatcher.outcome_counts()
                counts["admission.throttled"] += outcomes["throttled"]
                counts["admission.absorbed"] += outcomes["absorbed"]
            for histogram in metrics.collect("runtime.queue_wait_ms"):
                if histogram.count:
                    self._wait_p99s.append(histogram.quantile(0.99))
        for pipeline in self._pipelines:
            accounting = pipeline.accounting()
            counts["pipeline.traces"] += accounting["traces_total"]
            counts["pipeline.kept"] += accounting["traces_kept"]
        self._runtimes.clear()
        self._pipelines.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, ops: int, timed_s: float, to_reference: float) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_frac`` (which
        needs the untraced run), from ``ops`` operations in ``timed_s``
        wall seconds.  ``*self_us`` is microseconds of self time per
        workload operation, so the layers plus the unattributed rest add
        up to ``trace.us_per_op``; times are converted to reference units
        by ``to_reference`` (the run's reference seconds per wall second)."""
        counts = self.counts
        per_op = lambda name: counts[name] / ops  # noqa: E731
        timed_ns = timed_s * 1e9
        proxy_calls = sum(
            value for name, value in counts.items() if name.startswith("proxies.calls.")
        )
        out = {
            "core.proxies.calls": proxy_calls / ops,
            "core.proxies.errors": self.errors["core.proxies"] / ops,
            "core.descriptor.validations": per_op("descriptor.validations"),
            "core.descriptor.parse_ms": self.parse_ns / 1e6 * to_reference,
            "core.resilience.calls": per_op("resilience.calls"),
            "core.resilience.retries": per_op("resilience.retries"),
            "core.resilience.retry_success_frac": _ratio(
                counts["resilience.retried_ok"], counts["resilience.retried"]
            ),
            "core.resilience.breaker_opens": per_op("resilience.breaker_opens"),
            "platforms.android.calls": per_op("calls.platforms.android"),
            "platforms.s60.calls": per_op("calls.platforms.s60"),
            "platforms.webview.crossings": per_op("webview.crossings"),
            "platforms.webview.crossings_per_call": _ratio(
                counts["webview.crossings"], counts["proxies.calls.webview"]
            ),
            "platforms.webview.drains": per_op("webview.drains"),
            "platforms.webview.notifications_per_drain": _ratio(
                counts["webview.notifications"], counts["webview.drains"]
            ),
            "platforms.webview.empty_drain_frac": _ratio(
                counts["webview.empty_drains"], counts["webview.drains"]
            ),
            "device.network.requests": per_op("network.requests"),
            "device.sms.submits": per_op("sms.submits"),
            "device.gps.reads": per_op("gps.reads"),
            "runtime.submits": per_op("runtime.submits"),
            "runtime.task_steps": per_op("runtime.task_steps"),
            "runtime.coalesced_frac": _ratio(
                counts["runtime.coalesced"], counts["runtime.submitted"]
            ),
            "runtime.location_cache_hit_frac": _ratio(
                counts["runtime.location_cache_hits"],
                counts["runtime.location_cache_hits"]
                + counts["runtime.location_cache_misses"],
            ),
            "runtime.shed": per_op("runtime.shed"),
            "runtime.queue_wait_p99_vms": (
                statistics.median(self._wait_p99s) if self._wait_p99s else 0.0
            ),
            "runtime.admission.throttled": per_op("admission.throttled"),
            "runtime.admission.absorbed": per_op("admission.absorbed"),
            "runtime.admission.evicted": per_op("admission.evicted"),
            "runtime.admission.resizes": per_op("admission.autoscale_resizes"),
            "distrib.puts": per_op("distrib.puts"),
            "distrib.gossip_sweeps": per_op("distrib.sweeps"),
            "distrib.dedup_hit_frac": _ratio(
                counts["distrib.dedup_hits"],
                counts["distrib.dedup_hits"] + counts["distrib.dedup_misses"],
            ),
            "obs.spans": per_op("obs.spans"),
            "obs.pipeline_traces": per_op("pipeline.traces"),
            "obs.pipeline_kept_frac": _ratio(
                counts["pipeline.kept"], counts["pipeline.traces"]
            ),
            "obs.metric_observes": per_op("obs.observes"),
            "util.clock.events": per_op("clock.events"),
            "scenario.world_builds": per_op("scenario.world_builds"),
            "trace.us_per_op": timed_s * 1e6 / ops * to_reference,
            "trace.unattributed_frac": 1.0 - sum(self.self_ns.values()) / timed_ns,
        }
        for layer, metric in SELF_METRICS.items():
            out[metric] = self.self_ns[layer] / 1e3 / ops * to_reference
        return out

    def export_jsonl(self, path) -> None:
        """The kept spans (the first :data:`SPAN_CAP` of the timed phase)."""
        origin = self._origin_ns
        with open(path, "w", encoding="utf-8") as out:
            for span_id, (layer, name, parent, start, end) in enumerate(self.spans):
                if not end:
                    continue
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "layer": layer,
                            "name": name,
                            "start_us": (start - origin) / 1e3,
                            "end_us": (end - origin) / 1e3,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
