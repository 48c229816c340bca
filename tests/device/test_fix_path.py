"""The fix path against its reference: one fence pass in the device.

Before the fence pass, every fix was built at the tick and published on
the device bus, and its consumers subscribed there: the battery drain
first, then each platform's own loop over its registrations, from the
moment that platform first powered the receiver.  The reference side of
this module rebuilds that path: :class:`ReferenceTickReceiver` publishes
every fix, the battery drain subscribes first, and the two loops below
(kept as they were) subscribe in ``ensure_gps_powered``.

The lean side is the shipped path: ``GpsReceiver`` drains the battery,
runs ``repro.device.geofence.run_fences`` over the lists the platforms
watch, and publishes only to a bus subscriber.  A hypothesis property
drives both sides with one script and compares, with ``==``, what any
consumer can observe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.device.device import MobileDevice
from repro.device.gps import (
    GPS_FIX_DRAIN_MWH,
    TOPIC_FIX,
    GpsFix,
    GpsReceiver,
    Trajectory,
    Waypoint,
)
from repro.faults.plan import FAULT_SITES, FaultPlan, FaultRule
from repro.platforms.android.context import Context
from repro.platforms.android.exceptions import IllegalArgumentException
from repro.platforms.android.intents import (
    FunctionIntentReceiver,
    Intent,
    IntentFilter,
    PendingIntent,
)
from repro.platforms.android.location import (
    ACCESS_FINE_LOCATION,
    EXTRA_ENTERING,
    NO_EXPIRATION,
    LocationServiceState,
)
from repro.platforms.android.platform import AndroidPlatform
from repro.platforms.android.versions import SdkVersion
from repro.platforms.s60.location import (
    PERMISSION_LOCATION,
    Coordinates,
    LocationProviderStatics,
    ProximityListener,
    S60Location,
)
from repro.platforms.s60.packaging import Jar, JarEntry, JadDescriptor, MidletSuite
from repro.platforms.s60.platform import S60Platform
from repro.util.geo import EARTH_RADIUS_M, GeoPoint, destination_point, haversine_m
from repro.util.latency import LatencyModel
from tests.device.test_gps import ReferenceTickReceiver


class ReferenceAlertTable(LocationServiceState):
    """Android's alert table with the loop the fence pass replaced."""

    def ensure_gps_powered(self):
        gps = self._platform.device.gps
        if not gps.powered:
            gps.power_on()
        if not self._watching:
            self._platform.device.bus.subscribe(TOPIC_FIX, self._on_fix)
            self._watching = True

    def _on_fix(self, topic, fix):
        now = self._platform.clock.now_ms
        for alert in list(self._alerts):
            if alert.expires_at_ms is not None and now >= alert.expires_at_ms:
                self._drop(alert)
                continue
            distance = haversine_m(
                fix.point.latitude,
                fix.point.longitude,
                alert.latitude,
                alert.longitude,
            )
            inside = distance <= alert.radius_m
            if not alert.primed:
                alert.primed = True
                alert.inside = inside
                if inside:
                    self._fire(alert, entering=True)
                continue
            if inside != alert.inside:
                alert.inside = inside
                self._fire(alert, entering=inside)


class ReferenceProximityTable(LocationProviderStatics):
    """S60's registration table with the loop the fence pass replaced."""

    def ensure_gps_powered(self):
        gps = self.platform.device.gps
        if not gps.powered:
            gps.power_on()
        if not self._watching:
            self.platform.device.bus.subscribe(TOPIC_FIX, self._on_fix)
            self._watching = True

    def remove_proximity_listener(self, listener):
        removed = [r for r in self._proximity if r.listener is listener]
        self._proximity = [r for r in self._proximity if r.listener is not listener]
        for registration in removed:
            registration.listener.monitoring_state_changed(False)

    def _on_fix(self, topic, fix):
        location = None
        for registration in list(self._proximity):
            distance = haversine_m(
                fix.point.latitude,
                fix.point.longitude,
                registration.coordinates.get_latitude(),
                registration.coordinates.get_longitude(),
            )
            if distance <= registration.radius_m and not registration.fired:
                registration.fired = True
                if registration in self._proximity:
                    self._proximity.remove(registration)
                if location is None:
                    location = S60Location.from_fix(fix)
                registration.listener.proximity_event(
                    registration.coordinates, location
                )


@dataclass(frozen=True)
class Fence:
    """One registration of a script.  ``on_fire`` runs in the fence's
    callback: ``("add", i)`` registers fence ``i``'s circle again (with
    no action of its own), ``("remove", i)`` removes fence ``i``."""

    platform: str
    latitude: float
    longitude: float
    radius_m: float
    expiration_ms: float = NO_EXPIRATION
    twin: bool = False  # a value-equal second registration
    at_ms: Optional[float] = None  # registered at the start, or then
    on_fire: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class Script:
    waypoints: Tuple[Tuple[float, float, float], ...]
    fences: Tuple[Fence, ...]
    gps_seed: int = 0
    accuracy_m: float = 0.0
    time_to_first_fix_ms: float = 1_000.0
    fix_interval_ms: float = 1_000.0
    plan: Optional[FaultPlan] = None
    android_first: bool = True
    sdk: SdkVersion = SdkVersion.M5_RC15
    latency_ms: float = 1.0
    subscriber: bool = True
    fixes_to_low_battery: int = 10
    run_ms: float = 12_000.0


class _Listener(ProximityListener):
    def __init__(self, world: "World", index: int) -> None:
        self._world = world
        self._index = index

    def proximity_event(self, coordinates, location):
        self._world.s60_entered(self._index, coordinates, location)

    def monitoring_state_changed(self, active):
        self._world.log.append(("monitoring", self._index, active))


class World:
    """One side of the property: a device with both platforms, driven by
    a :class:`Script`, recording what its consumers see."""

    def __init__(self, script: Script, reference: bool) -> None:
        self.script = script
        trajectory = Trajectory(
            [Waypoint(t, GeoPoint(lat, lon)) for t, lat, lon in script.waypoints]
        )
        device = self.device = MobileDevice(
            "+15550100", trajectory=trajectory, fault_plan=script.plan
        )
        receiver = ReferenceTickReceiver if reference else GpsReceiver
        extra = {} if reference else {"battery": device.battery}
        device.gps = receiver(
            device.scheduler,
            device.bus,
            trajectory,
            seed=script.gps_seed,
            injector=device.faults,
            accuracy_m=script.accuracy_m,
            time_to_first_fix_ms=script.time_to_first_fix_ms,
            fix_interval_ms=script.fix_interval_ms,
            **extra,
        )
        if reference:
            device.bus.subscribe(
                TOPIC_FIX,
                lambda topic, fix: device.battery.drain("gps.fix", GPS_FIX_DRAIN_MWH),
            )
        battery = device.battery
        battery.level_mwh = (
            battery.capacity_mwh * battery.low_threshold_fraction
            + GPS_FIX_DRAIN_MWH * script.fixes_to_low_battery
            + 0.1
        )
        self.log: List[tuple] = []
        battery.on_low.connect(
            lambda fraction: self.log.append(("low", fraction, device.clock.now_ms))
        )

        self.android = AndroidPlatform(
            device,
            sdk_version=script.sdk,
            latency=LatencyModel(default_ms=script.latency_ms),
        )
        self.s60 = S60Platform(device, latency=LatencyModel(default_ms=script.latency_ms))
        if reference:
            self.android.location_state = ReferenceAlertTable(self.android)
            self.s60.location_provider = ReferenceProximityTable(self.s60)
        self.android.install("app", {ACCESS_FINE_LOCATION})
        self.context = self.android.new_context("app")
        self.manager = self.context.get_system_service(Context.LOCATION_SERVICE)
        self.s60.install_suite(
            MidletSuite(
                JadDescriptor("app", permissions=[PERMISSION_LOCATION]),
                Jar("app.jar", [JarEntry("A.class", 1)]),
            )
        )
        self.statics = self.s60.location_provider
        self.statics.bind_suite("app")

        self.fences = list(script.fences)
        self.handles: dict = {}  # fence index -> intent target or listener
        self.published: List[tuple] = []
        self._locations: List[S60Location] = []
        self.error: Optional[Tuple[str, str]] = None

    # -- the script ----------------------------------------------------------

    def run(self) -> dict:
        script = self.script
        tables = [self.android.location_state, self.statics]
        if not script.android_first:
            tables.reverse()
        try:
            for table in tables:
                table.ensure_gps_powered()
            for index, fence in enumerate(script.fences):
                if fence.at_ms is not None:
                    self.device.scheduler.call_at(
                        fence.at_ms, lambda index=index: self.register(index)
                    )
            for index, fence in enumerate(script.fences):
                if fence.at_ms is None:
                    self.register(index)
            if script.subscriber:
                self.device.bus.subscribe(TOPIC_FIX, self._on_published)
            self.device.run_for(script.run_ms)
        except Exception as error:  # the same failure must end both sides
            self.error = (type(error).__name__, str(error))
        return self.observed()

    def register(self, index: int) -> None:
        fence = self.fences[index]
        if fence.platform == "android":
            action = f"test.PROXIMITY.{index}"
            intent = Intent(action)
            target = (
                intent
                if self.script.sdk is SdkVersion.M5_RC15
                else PendingIntent.get_broadcast(self.context, 0, intent)
            )
            self.context.register_receiver(
                FunctionIntentReceiver(
                    lambda context, received: self.android_fired(index, received)
                ),
                IntentFilter(action),
            )
            self.handles[index] = target
            for _ in range(2 if fence.twin else 1):
                try:
                    self.manager.add_proximity_alert(
                        fence.latitude,
                        fence.longitude,
                        fence.radius_m,
                        fence.expiration_ms,
                        target,
                    )
                except IllegalArgumentException as error:  # non-finite
                    self.log.append(("refused", index, str(error)))
        else:
            listener = _Listener(self, index)
            coordinates = Coordinates(fence.latitude, fence.longitude)
            self.handles[index] = listener
            for _ in range(2 if fence.twin else 1):
                self.statics.add_proximity_listener(listener, coordinates, fence.radius_m)

    def _act(self, index: int) -> None:
        action = self.fences[index].on_fire
        if action is None:
            return
        verb, other = action
        other %= len(self.script.fences)
        if verb == "add":
            copy = Fence(**{**self.fences[other].__dict__, "twin": False, "on_fire": None})
            self.fences.append(copy)
            self.register(len(self.fences) - 1)
        elif other in self.handles:
            handle = self.handles[other]
            if self.fences[other].platform == "android":
                self.manager.remove_proximity_alert(handle)
            else:
                self.statics.remove_proximity_listener(handle)

    # -- consumers -------------------------------------------------------------

    def android_fired(self, index: int, received: Intent) -> None:
        entering = received.get_boolean_extra(EXTRA_ENTERING, False)
        self.log.append(("android", index, entering, self.device.clock.now_ms))
        self._act(index)

    def s60_entered(self, index: int, coordinates, location: S60Location) -> None:
        shared = next(
            (k for k, seen in enumerate(self._locations) if seen is location), None
        )
        if shared is None:
            shared = len(self._locations)
            self._locations.append(location)
        point = location.get_qualified_coordinates()
        self.log.append(
            (
                "s60",
                index,
                (coordinates.get_latitude(), coordinates.get_longitude()),
                (
                    point.get_latitude(),
                    point.get_longitude(),
                    point.get_altitude(),
                    location.get_timestamp(),
                    location.get_speed(),
                    location.is_valid(),
                ),
                shared,
            )
        )
        self._act(index)

    def _on_published(self, topic: str, fix: GpsFix) -> None:
        # Read at the call: what the battery and the fences did before.
        self.published.append(
            (
                fix,
                self.device.battery.level_mwh,
                len(self.android.broadcast_registry.broadcast_log),
                len(self.log),
                self.android.location_state.active_alert_count,
                self.statics.proximity_registration_count,
                self.device.clock.now_ms,
            )
        )

    def observed(self) -> dict:
        device = self.device
        return {
            "error": self.error,
            "log": self.log,
            "broadcasts": [
                (intent.get_action(), sorted(intent.extras().items()))
                for intent in self.android.broadcast_registry.broadcast_log
            ],
            "published": self.published,
            "alerts": self.android.location_state.active_alert_count,
            "registrations": self.statics.proximity_registration_count,
            "battery": (device.battery.level_mwh, device.battery.drain_report()),
            "last_fix": device.gps.last_fix,
            "lost": device.gps.lost_fixes,
            "stale": device.gps.stale_fixes,
            "schedule": device.faults.schedule(),
            "now_ms": device.clock.now_ms,
        }


def run_both(script: Script) -> Tuple[dict, dict]:
    return World(script, reference=False).run(), World(script, reference=True).run()


# -- strategies -------------------------------------------------------------------

_SIGN = st.sampled_from([-1.0, 1.0])

#: Where the script happens: anywhere, within 10**-k degrees of the
#: antimeridian, or near a pole.
_ANCHORS = st.one_of(
    st.tuples(st.floats(-70.0, 70.0), st.floats(-180.0, 180.0)),
    st.tuples(
        st.floats(-80.0, 80.0),
        st.tuples(_SIGN, st.integers(0, 7)).map(lambda s: s[0] * (180.0 - 10.0 ** -s[1])),
    ),
    st.tuples(
        st.tuples(_SIGN, st.floats(60.0, 89.999)).map(lambda s: s[0] * s[1]),
        st.floats(-180.0, 180.0),
    ),
)

#: Radii from 1 mm to 20,000 km, log-uniform.
_RADII = st.floats(-3.0, math.log10(2e7)).map(lambda e: 10.0**e)

#: Centre distance from the anchor, in radii: on, near, across and far
#: from the boundary.
_OFFSETS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.001, 2.0, 10.0]),
    st.floats(0.0, 3.0),
)

#: Relative radius nudges: the anchor just inside, on or just outside.
_NUDGES = st.sampled_from([1e-6, 1e-9, 0.0, -1e-9, -1e-6])


def _tangent_centre(latitude, longitude, radius_m, side):
    """The centre of the circle of ``radius_m`` whose easternmost
    (``side`` 1) or westernmost (-1) point is (``latitude``,
    ``longitude``), or ``None`` when no such circle exists."""
    angle = radius_m / EARTH_RADIUS_M
    if angle >= math.pi / 2:
        return None
    centre_phi = math.asin(math.sin(math.radians(latitude)) * math.cos(angle))
    if math.cos(centre_phi) <= math.sin(angle):
        return None  # the circle holds a pole
    reach = math.degrees(math.asin(math.sin(angle) / math.cos(centre_phi)))
    centre_lon = longitude - side * reach
    if centre_lon > 180.0:
        centre_lon -= 360.0
    elif centre_lon < -180.0:
        centre_lon += 360.0
    return math.degrees(centre_phi), centre_lon


_GRID_MS = 250.0
_TIMES = st.integers(0, 64).map(lambda k: k * _GRID_MS)


@st.composite
def _scripts(draw):
    anchor_lat, anchor_lon = draw(_ANCHORS)
    scale = draw(st.sampled_from([300.0, 5_000.0, 1_500_000.0]))
    times = draw(st.lists(_TIMES, min_size=1, max_size=4, unique=True))
    waypoints = [(times[0], anchor_lat, anchor_lon)]
    for t in times[1:]:
        point = destination_point(
            anchor_lat,
            anchor_lon,
            draw(st.floats(0.0, 360.0)),
            draw(st.floats(0.0, 1.0)) * scale,
        )
        waypoints.append((t, point.latitude, point.longitude))

    count = draw(st.integers(1, 6))
    fences = []
    for _ in range(count):
        platform = draw(st.sampled_from(["android", "s60"]))
        radius = draw(_RADII)
        centre = None
        if draw(st.integers(0, 2)) == 0:  # the anchor at the circle's widest
            centre = _tangent_centre(anchor_lat, anchor_lon, radius, draw(_SIGN))
            radius *= 1.0 + draw(_NUDGES)
        if centre is None:
            point = destination_point(
                anchor_lat,
                anchor_lon,
                draw(st.floats(0.0, 360.0)),
                draw(_OFFSETS) * radius,
            )
            centre = point.latitude, point.longitude
        latitude, longitude = centre
        expiration = NO_EXPIRATION
        if platform == "android":
            if draw(st.integers(0, 9)) == 0:  # an alert the platform refuses
                degenerate = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
                field = draw(st.sampled_from(["latitude", "longitude", "radius"]))
                if field == "latitude":
                    latitude = degenerate
                elif field == "longitude":
                    longitude = degenerate
                else:
                    radius = degenerate
            expiration = draw(
                st.one_of(
                    st.just(NO_EXPIRATION),
                    st.sampled_from([0.0, 1_000.0, 2_999.0, 3_000.0, 6_000.0]),
                    st.floats(-10.0, 15_000.0),
                )
            )
        fences.append(
            Fence(
                platform=platform,
                latitude=latitude,
                longitude=longitude,
                radius_m=radius,
                expiration_ms=expiration,
                twin=draw(st.integers(0, 4)) == 0,
                at_ms=draw(st.one_of(st.none(), st.none(), _TIMES)),
                on_fire=draw(
                    st.one_of(
                        st.none(),
                        st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 9)),
                    )
                ),
            )
        )

    plan = draw(
        st.one_of(
            st.none(),
            st.builds(
                lambda seed, kind, rate: FaultPlan(
                    seed=seed, rules=(FaultRule("gps.fix", kind, rate),)
                ),
                st.integers(0, 2**16),
                st.sampled_from(FAULT_SITES["gps.fix"]),
                st.sampled_from([0.25, 0.5, 1.0]),
            ),
        )
    )
    return Script(
        waypoints=tuple(waypoints),
        fences=tuple(fences),
        gps_seed=draw(st.integers(0, 2**16)),
        accuracy_m=draw(st.sampled_from([0.0, 0.0, 5.0])),
        time_to_first_fix_ms=draw(st.sampled_from([0.0, 1_000.0, 2_000.0])),
        fix_interval_ms=draw(st.sampled_from([500.0, 1_000.0, 1_500.0])),
        plan=plan,
        android_first=draw(st.booleans()),
        sdk=draw(st.sampled_from(list(SdkVersion))),
        latency_ms=draw(st.sampled_from([0.0, 1.0])),
        subscriber=draw(st.booleans()),
        fixes_to_low_battery=draw(st.integers(0, 20)),
        run_ms=draw(st.sampled_from([6_000.0, 12_000.0])),
    )


class TestFixPathAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(script=_scripts())
    def test_consumers_see_what_the_reference_showed_them(self, script):
        lean, reference = run_both(script)
        assert lean == reference


# -- hand-picked cases ------------------------------------------------------------

SITE = (28.6, 77.2)
AWAY = destination_point(SITE[0], SITE[1], 90.0, 2_000.0)

#: away → site → away → site, one fix a second.
COMMUTE = (
    (0.0, AWAY.latitude, AWAY.longitude),
    (6_000.0, SITE[0], SITE[1]),
    (12_000.0, AWAY.latitude, AWAY.longitude),
    (18_000.0, SITE[0], SITE[1]),
)


def _commute(fences, **kwargs):
    return Script(waypoints=COMMUTE, fences=tuple(fences), run_ms=20_000.0, **kwargs)


class TestFixPathCases:
    def test_both_platforms_cross_like_the_reference(self):
        lean, reference = run_both(
            _commute(
                [
                    Fence("android", SITE[0], SITE[1], 500.0),
                    Fence("s60", SITE[0], SITE[1], 500.0),
                    Fence("android", SITE[0], SITE[1], 500.0, expiration_ms=9_000.0),
                ]
            )
        )
        assert lean == reference
        kinds = [entry[:3] for entry in lean["log"] if entry[0] in ("android", "s60")]
        assert kinds == [
            ("android", 0, True),
            ("android", 2, True),
            ("s60", 1, (SITE[0], SITE[1])),
            ("android", 0, False),
            ("android", 2, False),
            ("android", 0, True),  # fence 2 expired meanwhile
        ]

    def test_registrations_entering_on_one_fix_share_one_location(self):
        lean, reference = run_both(
            _commute(
                [
                    Fence("s60", SITE[0], SITE[1], 500.0),
                    Fence("s60", SITE[0], SITE[1], 800.0, at_ms=2_000.0),
                    Fence("s60", SITE[0], SITE[1], 500.0, twin=True),
                ],
                subscriber=False,
            )
        )
        assert lean == reference
        entries = [entry for entry in lean["log"] if entry[0] == "s60"]
        assert [entry[4] for entry in entries] == [0, 1, 1, 1]

    def test_a_callback_that_removes_a_fence_does_not_spare_it_this_fix(self):
        # Fence 0 enters and removes fence 1, which is inside on the same
        # fix: the snapshot still evaluates it, so both platforms fire it
        # on that fix.  S60 skips the one-shot removal of a registration
        # already gone, and the run goes on.
        for platform in ("android", "s60"):
            lean, reference = run_both(
                _commute(
                    [
                        Fence(platform, SITE[0], SITE[1], 500.0, on_fire=("remove", 1)),
                        Fence(platform, SITE[0], SITE[1], 500.0),
                    ]
                )
            )
            assert lean == reference
            assert lean["error"] is None
            if platform == "android":
                assert [e[1] for e in lean["log"] if e[0] == "android"] == [0, 1, 0, 0]
            else:
                # (fence, fix time, shared Location): one entry fix, one
                # Location for both deliveries.
                assert [
                    (e[1], e[3][3], e[4]) for e in lean["log"] if e[0] == "s60"
                ] == [(0, 5_000.0, 0), (1, 5_000.0, 0)]

    def test_a_stale_replay_reaches_the_battery_and_the_fences(self):
        # Fixes at 7, 8 and 9 s replay the 6 s fix, taken at the site.
        plan = FaultPlan(
            seed=3,
            rules=(FaultRule("gps.fix", "stale", 1.0, start_ms=7_000.0, end_ms=9_500.0),),
        )
        lean, reference = run_both(
            _commute(
                [
                    Fence("s60", SITE[0], SITE[1], 500.0, at_ms=5_500.0),
                    Fence("s60", SITE[0], SITE[1], 500.0, at_ms=7_500.0),
                    Fence("android", SITE[0], SITE[1], 500.0),
                ],
                plan=plan,
            )
        )
        assert lean == reference
        assert lean["stale"] == 3
        drained = [entry[1] for entry in lean["published"]]
        assert all(later < earlier for earlier, later in zip(drained, drained[1:]))
        # Fence 1 enters on a replay of the fix fence 0 entered on: the
        # same values, in a Location of its own.
        first, second = [entry for entry in lean["log"] if entry[0] == "s60"]
        assert first[3] == second[3] and first[3][3] == 6_000.0
        assert (first[4], second[4]) == (0, 1)
        android = [entry for entry in lean["log"] if entry[0] == "android"]
        assert [(e[2], e[3]) for e in android] == [
            (True, 5_000.0),
            (False, 10_000.0),  # the replays held it inside
            (True, 17_000.0),
        ]

    def test_value_equal_alerts_expire_and_leave_together(self):
        lean, reference = run_both(
            _commute(
                [
                    Fence(
                        "android",
                        SITE[0],
                        SITE[1],
                        500.0,
                        expiration_ms=8_000.0,
                        twin=True,
                    )
                ],
                latency_ms=0.0,
            )
        )
        assert lean == reference
        assert [e[1:3] for e in lean["log"] if e[0] == "android"] == [(0, True)] * 2
        assert lean["alerts"] == 0

    @pytest.mark.parametrize(
        "anchor, bearing",
        [((10.0, 179.9999), 90.0), ((10.0, -179.9999), 270.0), ((89.9999, 0.0), 0.0)],
        ids=["east-of-antimeridian", "west-of-antimeridian", "over-the-pole"],
    )
    def test_fences_across_the_antimeridian_and_the_pole(self, anchor, bearing):
        # The centre lies across the antimeridian (or the pole) from the
        # parked receiver, 30 m inside a 100 m circle.
        centre = destination_point(anchor[0], anchor[1], bearing, 70.0)
        lean, reference = run_both(
            Script(
                waypoints=((0.0, anchor[0], anchor[1]),),
                fences=(
                    Fence("android", centre.latitude, centre.longitude, 100.0),
                    Fence("s60", centre.latitude, centre.longitude, 100.0),
                ),
            )
        )
        assert lean == reference
        assert [e[:2] for e in lean["log"] if e[0] in ("android", "s60")] == [
            ("android", 0),
            ("s60", 1),
        ]


class TestLeanPath:
    def _world(self, **kwargs):
        script = _commute([Fence("android", SITE[0], SITE[1], 500.0)], **kwargs)
        return World(script, reference=False)

    def test_no_platform_subscribes_to_fixes(self):
        world = self._world(subscriber=False)
        world.run()
        assert world.device.bus.subscriber_count(TOPIC_FIX) == 0
        assert world.android.broadcast_registry.broadcast_log

    def test_the_fix_object_is_built_only_for_a_reader(self, monkeypatch):
        import repro.device.gps as gps_module

        built = []

        def counting_fix(*args):
            built.append(GpsFix(*args))
            return built[-1]

        monkeypatch.setattr(gps_module, "GpsFix", counting_fix)
        world = self._world(subscriber=False)
        observed = world.run()
        assert observed["log"] and built == [observed["last_fix"]]
        assert world.device.gps.last_fix is observed["last_fix"]
        assert len(built) == 1

    def test_a_subscriber_gets_every_fix_and_last_fix_is_the_same_object(self):
        world = self._world(subscriber=True)
        world.run()
        published = [entry[0] for entry in world.published]
        assert [fix.timestamp_ms for fix in published] == [
            1_000.0 * k for k in range(1, 21)
        ]
        assert world.device.gps.last_fix is published[-1]

    def test_the_box_is_computed_at_the_first_evaluation(self):
        world = self._world(subscriber=False)
        world.register(0)
        (alert,) = world.android.location_state._alerts
        assert alert.box is None
        world.device.run_for(2_000.0)
        assert alert.box is not None

    def test_an_out_of_range_fix_still_raises_at_the_tick(self):
        script = Script(
            waypoints=((0.0, 90.0, 0.0),),
            fences=(Fence("s60", 89.0, 0.0, 10.0),),
            accuracy_m=50.0,
            gps_seed=1,
        )
        lean, reference = run_both(script)
        assert lean == reference
        assert lean["error"][0] == "ValueError" and "out of [-90, 90]" in lean["error"][1]
