"""The Figure-10 runner: the calibrated worlds behind each bar.

Measurement model (see ``repro.bench.calibration``): one invocation's cost
is *(virtual native latency charged by the substrate)* + *(real Python
time spent executing the call path)*.  Both modes pay the same calibrated
native charge; the proxy mode additionally executes the M-Proxy layer.
This module builds the worlds and drives them in virtual time only; the
wall-clock half is timed from outside the program, by the per-bar loop
in ``benchmarks/bench_fig10_invocation_overhead.py`` and by
``python3 -m benchmarks.e2e``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.workforce import scenario
from repro.bench.calibration import (
    figure10_android_latency,
    figure10_s60_latency,
    figure10_webview_bridge_latency,
)
from repro.core.proxies import create_proxy
from repro.core.proxy.callbacks import ProximityListener
from repro.obs import Observability, OverheadProfile
from repro.platforms.android.context import Context
from repro.platforms.android.intents import Intent
from repro.platforms.android.location import NO_EXPIRATION as ANDROID_NO_EXPIRATION
from repro.platforms.s60.location import Coordinates
from repro.platforms.s60.location import ProximityListener as S60NativeListener
from repro.runtime import ConcurrencyRuntime
from repro.util.clock import Scheduler

#: The three APIs Figure 10 charts.
APIS = ("addProximityAlert", "getLocation", "sendSMS")
PLATFORMS = ("android", "webview", "s60")


class _NullUniformListener(ProximityListener):
    def proximity_event(self, *args) -> None:  # pragma: no cover - never fires
        pass


class _NullS60Listener(S60NativeListener):
    def proximity_event(self, coordinates, location) -> None:  # pragma: no cover
        pass

    def monitoring_state_changed(self, active: bool) -> None:
        pass


@dataclass
class _Bench:
    """One (platform, mode) bench context: invoke + cleanup per API."""

    clock_now: Callable[[], float]
    invoke: Dict[str, Callable[[], None]]
    cleanup: Dict[str, Callable[[], None]]
    #: the scenario's event scheduler; the runtime parity path rides it.
    scheduler: Optional[Scheduler] = None


class Fig10Runner:
    """Builds the calibrated scenario behind every bar of Figure 10."""

    def __init__(self, *, jitter_fraction: float = 0.0) -> None:
        self._jitter = jitter_fraction

    # -- per-platform bench builders -----------------------------------------

    def _android_bench(
        self, with_proxy: bool, hub: Optional[Observability] = None
    ) -> _Bench:
        sc = scenario.build_android(
            latency=figure10_android_latency(jitter_fraction=self._jitter),
            observability=hub,
        )
        sc.device.gps.power_on()
        sc.platform.run_for(5_000)
        context = sc.new_context()
        site = sc.config.site
        if with_proxy:
            location = create_proxy("Location", sc.platform)
            location.set_property("context", context)
            sms = create_proxy("Sms", sc.platform)
            sms.set_property("context", context)
            listener = _NullUniformListener()
            return _Bench(
                clock_now=lambda: sc.platform.clock.now_ms,
                scheduler=sc.device.scheduler,
                invoke={
                    "addProximityAlert": lambda: location.add_proximity_alert(
                        site.latitude, site.longitude, 0.0, site.radius_m, -1, listener
                    ),
                    "getLocation": lambda: location.get_location(),
                    "sendSMS": lambda: sms.send_text_message("+900", "bench"),
                },
                cleanup={
                    "addProximityAlert": lambda: location.remove_proximity_alert(
                        listener
                    ),
                },
            )
        manager = context.get_system_service(Context.LOCATION_SERVICE)
        sms_manager = sc.platform.sms_manager(context)
        intents: List[Intent] = []

        def add_alert() -> None:
            intent = Intent("bench.PROXIMITY")
            intents.append(intent)
            manager.add_proximity_alert(
                site.latitude, site.longitude, site.radius_m,
                ANDROID_NO_EXPIRATION, intent,
            )

        def remove_alert() -> None:
            while intents:
                manager.remove_proximity_alert(intents.pop())

        return _Bench(
            clock_now=lambda: sc.platform.clock.now_ms,
            scheduler=sc.device.scheduler,
            invoke={
                "addProximityAlert": add_alert,
                "getLocation": lambda: manager.get_current_location("gps"),
                "sendSMS": lambda: sms_manager.send_text_message("+900", None, "bench"),
            },
            cleanup={"addProximityAlert": remove_alert},
        )

    def _s60_bench(
        self, with_proxy: bool, hub: Optional[Observability] = None
    ) -> _Bench:
        sc = scenario.build_s60(
            latency=figure10_s60_latency(jitter_fraction=self._jitter),
            observability=hub,
        )
        sc.device.gps.power_on()
        sc.platform.run_for(5_000)
        site = sc.config.site
        if with_proxy:
            location = create_proxy("Location", sc.platform)
            sms = create_proxy("Sms", sc.platform)
            listener = _NullUniformListener()
            return _Bench(
                clock_now=lambda: sc.platform.clock.now_ms,
                scheduler=sc.device.scheduler,
                invoke={
                    "addProximityAlert": lambda: location.add_proximity_alert(
                        site.latitude, site.longitude, 0.0, site.radius_m, -1, listener
                    ),
                    "getLocation": lambda: location.get_location(),
                    "sendSMS": lambda: sms.send_text_message("+900", "bench"),
                },
                cleanup={
                    "addProximityAlert": lambda: location.remove_proximity_alert(
                        listener
                    ),
                },
            )
        statics = sc.platform.location_provider
        provider = statics.get_instance(None)
        native_listener = _NullS60Listener()
        coordinates = Coordinates(site.latitude, site.longitude)

        def send_sms() -> None:
            connection = sc.platform.connector.open("sms://+900")
            message = connection.new_message(connection.TEXT_MESSAGE)
            message.set_payload_text("bench")
            connection.send(message)
            connection.close()

        return _Bench(
            clock_now=lambda: sc.platform.clock.now_ms,
            scheduler=sc.device.scheduler,
            invoke={
                "addProximityAlert": lambda: statics.add_proximity_listener(
                    native_listener, coordinates, site.radius_m
                ),
                "getLocation": lambda: provider.get_location(-1),
                "sendSMS": send_sms,
            },
            cleanup={
                "addProximityAlert": lambda: statics.remove_proximity_listener(
                    native_listener
                ),
            },
        )

    def _webview_bench(
        self, with_proxy: bool, hub: Optional[Observability] = None
    ) -> _Bench:
        sc = scenario.build_webview(
            latency=figure10_webview_bridge_latency(jitter_fraction=self._jitter),
            android_latency=figure10_android_latency(jitter_fraction=self._jitter),
            observability=hub,
        )
        sc.device.gps.power_on()
        sc.platform.run_for(5_000)
        context = sc.new_context()
        webview = sc.platform.new_webview()
        site = sc.config.site
        if with_proxy:
            from repro.core.plugin.packaging import WebViewPlatformExtension
            from repro.core.proxies.location.webview import LocationProxyJs
            from repro.core.proxies.sms.webview import SmsProxyJs

            WebViewPlatformExtension().install_wrappers(
                webview, sc.platform, context, ["Location", "Sms"]
            )
            holder: Dict[str, object] = {}

            def page(window) -> None:
                holder["location"] = LocationProxyJs.in_page(window)
                holder["sms"] = SmsProxyJs.in_page(window)

            webview.load_page(page)
            location = holder["location"]
            sms = holder["sms"]
            listener = _NullUniformListener()
            return _Bench(
                clock_now=lambda: sc.platform.clock.now_ms,
                scheduler=sc.device.scheduler,
                invoke={
                    "addProximityAlert": lambda: location.add_proximity_alert(
                        site.latitude, site.longitude, 0.0, site.radius_m, -1, listener
                    ),
                    "getLocation": lambda: location.get_location(),
                    "sendSMS": lambda: sms.send_text_message("+900", "bench"),
                },
                cleanup={
                    "addProximityAlert": lambda: location.remove_proximity_alert(
                        listener
                    ),
                },
            )

        # Without proxy: the developer's raw shims over the Android managers.
        android = sc.platform.android
        intents: List[Intent] = []

        class RawShims:
            """Bench-only Java shim exposing the three calls directly."""

            def add_proximity_alert(self, latitude, longitude, radius) -> str:
                manager = context.get_system_service(Context.LOCATION_SERVICE)
                intent = Intent("bench.PROXIMITY")
                intents.append(intent)
                manager.add_proximity_alert(
                    latitude, longitude, radius, ANDROID_NO_EXPIRATION, intent
                )
                return "ok"

            def get_location(self) -> str:
                manager = context.get_system_service(Context.LOCATION_SERVICE)
                location = manager.get_current_location("gps")
                return f"{location.get_latitude()},{location.get_longitude()}"

            def send_text_message(self, destination: str, text: str) -> str:
                return android.sms_manager(context).send_text_message(
                    destination, None, text
                )

        webview.add_javascript_interface(RawShims(), "RawShims")
        holder = {}
        webview.load_page(lambda window: holder.update(shims=window.bridge_object("RawShims")))
        shims = holder["shims"]

        def remove_alerts() -> None:
            # On the Java side, so cleanup crosses no bridge.
            manager = context.get_system_service(Context.LOCATION_SERVICE)
            while intents:
                manager.remove_proximity_alert(intents.pop())

        return _Bench(
            clock_now=lambda: sc.platform.clock.now_ms,
            scheduler=sc.device.scheduler,
            invoke={
                "addProximityAlert": lambda: shims.add_proximity_alert(
                    site.latitude, site.longitude, site.radius_m
                ),
                "getLocation": lambda: shims.get_location(),
                "sendSMS": lambda: shims.send_text_message("+900", "bench"),
            },
            cleanup={"addProximityAlert": remove_alerts},
        )

    def _bench_for(
        self, platform: str, with_proxy: bool, hub: Optional[Observability] = None
    ) -> _Bench:
        if platform == "android":
            return self._android_bench(with_proxy, hub)
        if platform == "s60":
            return self._s60_bench(with_proxy, hub)
        if platform == "webview":
            return self._webview_bench(with_proxy, hub)
        raise ValueError(f"unknown platform {platform!r}")

    # -- runtime parity ------------------------------------------------------

    def run_via_runtime(
        self,
        platform: str,
        api: str,
        *,
        repetitions: int = 10,
        shards: int = 1,
        queue_depth: int = 64,
        seed: int = 0,
    ) -> Dict[str, float]:
        """Drive one with-proxy bar through the concurrency runtime.

        Measures the *virtual* charge per invocation twice — calling the
        proxy directly, then submitting the same thunk through a
        dispatcher — and returns the medians.  With one shard and an
        empty queue the dispatcher replays the captured charge on its
        lane verbatim, so ``runtime_ms == direct_ms``: queueing adds no
        modelled latency of its own.
        """
        bench = self._bench_for(platform, True)
        invoke = bench.invoke[api]
        cleanup = bench.cleanup.get(api)
        runtime = ConcurrencyRuntime(
            bench.scheduler, shards=shards, queue_depth=queue_depth, seed=seed
        )
        direct: List[float] = []
        for _ in range(repetitions):
            before = bench.clock_now()
            invoke()
            direct.append(bench.clock_now() - before)
            if cleanup is not None:
                cleanup()
        via: List[float] = []
        for _ in range(repetitions):
            before = bench.clock_now()
            future = runtime.submit(platform, api, invoke)
            runtime.drain()
            via.append(bench.clock_now() - before)
            future.result()  # surface any ProxyError
            if cleanup is not None:
                cleanup()
        return {
            "direct_ms": statistics.median(direct),
            "runtime_ms": statistics.median(via),
        }

    # -- traced runs (the analytics layer's input) ----------------------------

    def trace(
        self,
        repetitions: int = 3,
        *,
        apis: Tuple[str, ...] = APIS,
        platforms: Tuple[str, ...] = PLATFORMS,
    ) -> str:
        """Run every with-proxy bar under a recording tracer and return
        the concatenated JSONL export (one tracer per platform; the
        profile fold re-segments on span-id restart).

        With jitter-free latency models the output is byte-identical
        across identically-seeded runs — this is the input
        ``python -m repro.obs profile`` decomposes into the Figure-10
        per-layer overhead view.
        """
        chunks: List[str] = []
        for platform in platforms:
            hub = Observability()
            bench = self._bench_for(platform, True, hub)
            hub.tracer.reset()  # drop setup-era spans; keep invocations only
            for api in apis:
                invoke = bench.invoke[api]
                cleanup = bench.cleanup.get(api)
                for _ in range(repetitions):
                    invoke()
                    if cleanup is not None:
                        cleanup()
            chunks.append(hub.export_jsonl())
        return "".join(chunks)


def fig10_overhead_profile(repetitions: int = 3) -> OverheadProfile:
    """The traced Figure-10 run folded into per-layer overhead."""
    runner = Fig10Runner()
    return OverheadProfile.from_jsonl(runner.trace(repetitions))


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Monospace table for benchmark output."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render(cells: List[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)
