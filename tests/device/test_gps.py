"""Tests for the GPS receiver and trajectory playback."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.device.gps import (
    GpsFix,
    GpsReceiver,
    Trajectory,
    Waypoint,
    TOPIC_FIX,
    TOPIC_STATE,
)
from repro.errors import ConfigurationError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_SITES, FaultPlan, FaultRule
from repro.util.clock import Scheduler, SimulatedClock
from repro.util.events import EventBus
from repro.util.geo import GeoPoint, destination_point


def _line_trajectory():
    start = GeoPoint(0.0, 0.0)
    end = destination_point(0.0, 0.0, 90.0, 1_000.0)
    return Trajectory([Waypoint(0.0, start), Waypoint(10_000.0, end)])


class TestTrajectory:
    def test_requires_waypoints(self):
        with pytest.raises(ConfigurationError):
            Trajectory([])

    def test_duplicate_times_rejected(self):
        point = GeoPoint(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            Trajectory([Waypoint(5.0, point), Waypoint(5.0, point)])

    def test_waypoints_sorted(self):
        a, b = GeoPoint(0.0, 0.0), GeoPoint(1.0, 1.0)
        trajectory = Trajectory([Waypoint(10.0, b), Waypoint(0.0, a)])
        assert trajectory.waypoints[0].point == a

    def test_holds_before_start(self):
        trajectory = _line_trajectory()
        assert trajectory.position_at(-100.0) == trajectory.waypoints[0].point

    def test_holds_after_end(self):
        trajectory = _line_trajectory()
        assert trajectory.position_at(1e9) == trajectory.waypoints[-1].point

    def test_interpolates_midway(self):
        trajectory = _line_trajectory()
        start = trajectory.waypoints[0].point
        midpoint = trajectory.position_at(5_000.0)
        distance = start.distance_to_m(midpoint)
        assert distance == pytest.approx(500.0, rel=0.01)

    def test_speed_on_leg(self):
        trajectory = _line_trajectory()  # 1000 m in 10 s
        assert trajectory.speed_at(5_000.0) == pytest.approx(100.0, rel=0.01)

    def test_speed_zero_when_parked(self):
        trajectory = _line_trajectory()
        assert trajectory.speed_at(20_000.0) == 0.0

    def test_single_waypoint_is_parked(self):
        trajectory = Trajectory([Waypoint(0.0, GeoPoint(5.0, 5.0))])
        assert trajectory.position_at(1_000.0) == GeoPoint(5.0, 5.0)
        assert trajectory.speed_at(500.0) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_waypoint_time_rejected(self, bad):
        # Unchecked, a NaN time fails only at the first query ("fraction
        # nan"), and an infinite one holds the position forever.
        with pytest.raises(ConfigurationError):
            Trajectory(
                [Waypoint(0.0, GeoPoint(0.0, 0.0)), Waypoint(bad, GeoPoint(1.0, 1.0))]
            )

    def test_overflowing_leg_rejected(self):
        with pytest.raises(ConfigurationError):
            Trajectory(
                [
                    Waypoint(-1e308, GeoPoint(0.0, 0.0)),
                    Waypoint(1e308, GeoPoint(1.0, 1.0)),
                ]
            )

    def test_nan_query_rejected(self):
        trajectory = _line_trajectory()
        for query in (trajectory.sample, trajectory.position_at, trajectory.speed_at):
            with pytest.raises(ValueError):
                query(math.nan)


class TestGpsReceiver:
    def _receiver(self, scheduler, bus, **kwargs):
        receiver = GpsReceiver(scheduler, bus, _line_trajectory(), **kwargs)
        return receiver

    def test_no_fix_before_power_on(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus)
        scheduler.run_for(10_000.0)
        assert receiver.last_fix is None

    def test_power_on_without_trajectory_fails(self, scheduler, bus):
        receiver = GpsReceiver(scheduler, bus)
        with pytest.raises(SimulationError):
            receiver.power_on()

    def test_time_to_first_fix(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, time_to_first_fix_ms=2_000.0)
        receiver.power_on()
        scheduler.run_for(1_999.0)
        assert receiver.last_fix is None
        scheduler.run_for(1.0)
        assert receiver.last_fix is not None

    def test_periodic_fixes_published(self, scheduler, bus):
        fixes = []
        bus.subscribe(TOPIC_FIX, lambda t, fix: fixes.append(fix))
        receiver = self._receiver(
            scheduler, bus, fix_interval_ms=1_000.0, time_to_first_fix_ms=0.0
        )
        receiver.power_on()
        scheduler.run_for(5_500.0)
        assert len(fixes) == 6  # t=0 (ttff 0) then every second

    def test_fix_noise_bounded(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, accuracy_m=5.0, seed=3)
        receiver.power_on()
        scheduler.run_for(30_000.0)
        fix = receiver.last_fix
        truth = receiver.ground_truth()
        assert fix.point.distance_to_m(truth) < 50.0  # well within 10 sigma

    def test_power_off_stops_fixes(self, scheduler, bus):
        fixes = []
        bus.subscribe(TOPIC_FIX, lambda t, fix: fixes.append(fix))
        receiver = self._receiver(scheduler, bus, time_to_first_fix_ms=0.0)
        receiver.power_on()
        scheduler.run_for(3_000.0)
        count_before = len(fixes)
        receiver.power_off()
        scheduler.run_for(5_000.0)
        assert count_before > 0
        assert len(fixes) == count_before

    def test_power_cycle_is_idempotent(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus)
        receiver.power_on()
        receiver.power_on()  # no double-arm
        scheduler.run_for(5_000.0)
        receiver.power_off()
        receiver.power_off()
        assert not receiver.powered

    def test_state_topic_published(self, scheduler, bus):
        states = []
        bus.subscribe(TOPIC_STATE, lambda t, s: states.append(s))
        receiver = self._receiver(scheduler, bus)
        receiver.power_on()
        receiver.power_off()
        assert states == ["on", "off"]

    def test_fix_carries_speed(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, time_to_first_fix_ms=0.0)
        receiver.power_on()
        scheduler.run_for(5_000.0)
        assert receiver.last_fix.speed_mps == pytest.approx(100.0, rel=0.05)

    def test_invalid_intervals_rejected(self, scheduler, bus):
        with pytest.raises(ConfigurationError):
            GpsReceiver(scheduler, bus, _line_trajectory(), fix_interval_ms=0.0)
        with pytest.raises(ConfigurationError):
            GpsReceiver(scheduler, bus, _line_trajectory(), time_to_first_fix_ms=-1.0)

    @pytest.mark.parametrize("parameter", ["fix_interval_ms", "time_to_first_fix_ms"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_timing_rejected_at_construction(
        self, scheduler, bus, parameter, bad
    ):
        # Unchecked, these construct and then fail at power_on with a
        # ClockError.
        with pytest.raises(ConfigurationError):
            GpsReceiver(scheduler, bus, _line_trajectory(), **{parameter: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0])
    def test_bad_accuracy_rejected_at_construction(self, scheduler, bus, bad):
        # Unchecked, NaN powers on and then raises "latitude nan out of
        # [-90, 90]" inside the scheduler loop at the first tick, and
        # -5.0 is reported as every fix's accuracy.
        with pytest.raises(ConfigurationError):
            GpsReceiver(scheduler, bus, _line_trajectory(), accuracy_m=bad)

    def test_zero_accuracy_reports_ground_truth(self, scheduler, bus):
        receiver = self._receiver(
            scheduler, bus, accuracy_m=0.0, time_to_first_fix_ms=0.0
        )
        receiver.power_on()
        scheduler.run_for(3_000.0)
        assert receiver.last_fix.point == receiver.ground_truth()
        assert receiver.last_fix.accuracy_m == 0.0

    def test_set_trajectory_rejects_none(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, time_to_first_fix_ms=0.0)
        receiver.power_on()
        with pytest.raises(ConfigurationError):
            receiver.set_trajectory(None)
        scheduler.run_for(2_000.0)
        assert receiver.last_fix.timestamp_ms == 2_000.0

    def test_set_trajectory_swaps_path(self, scheduler, bus):
        receiver = self._receiver(scheduler, bus, time_to_first_fix_ms=0.0)
        receiver.power_on()
        scheduler.run_for(2_000.0)
        parked = Trajectory([Waypoint(0.0, GeoPoint(50.0, 50.0))])
        receiver.set_trajectory(parked)
        scheduler.run_for(2_000.0)
        assert receiver.last_fix.point.distance_to_m(GeoPoint(50.0, 50.0)) < 100.0


def _reference_position(trajectory, t_ms):
    """The linear scan :meth:`Trajectory.position_at` replaced."""
    pts = trajectory.waypoints
    if t_ms <= pts[0].t_ms:
        return pts[0].point
    if t_ms >= pts[-1].t_ms:
        return pts[-1].point
    for earlier, later in zip(pts, pts[1:]):
        if earlier.t_ms <= t_ms <= later.t_ms:
            fraction = (t_ms - earlier.t_ms) / (later.t_ms - earlier.t_ms)
            p1, p2 = earlier.point, later.point
            return GeoPoint(
                p1.latitude + (p2.latitude - p1.latitude) * fraction,
                p1.longitude + (p2.longitude - p1.longitude) * fraction,
                p1.altitude + (p2.altitude - p1.altitude) * fraction,
            )
    raise AssertionError("unreachable")


def _reference_speed(trajectory, t_ms):
    """The linear scan :meth:`Trajectory.speed_at` replaced."""
    pts = trajectory.waypoints
    if t_ms < pts[0].t_ms or t_ms >= pts[-1].t_ms:
        return 0.0
    for earlier, later in zip(pts, pts[1:]):
        if earlier.t_ms <= t_ms < later.t_ms:
            distance = earlier.point.distance_to_m(later.point)
            duration_s = (later.t_ms - earlier.t_ms) / 1000.0
            return distance / duration_s if duration_s > 0 else 0.0
    return 0.0


_WAYPOINTS = st.lists(
    st.tuples(
        st.floats(-1e7, 1e7, allow_nan=False),
        st.floats(-80.0, 80.0, allow_nan=False),
        st.floats(-179.0, 179.0, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda w: w[0],
)


class TestTrajectoryAgainstLinearScan:
    @settings(max_examples=200, deadline=None)
    @given(waypoints=_WAYPOINTS, extra=st.lists(st.floats(-2e7, 2e7), max_size=5))
    def test_bisection_answers_exactly_as_the_scan(self, waypoints, extra):
        trajectory = Trajectory(
            [Waypoint(t, GeoPoint(lat, lon)) for t, lat, lon in waypoints]
        )
        queries = list(extra)
        for t, _, _ in waypoints:
            queries += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        for t_ms in queries:
            position = _reference_position(trajectory, t_ms)
            speed = _reference_speed(trajectory, t_ms)
            assert trajectory.sample(t_ms) == (
                position.latitude,
                position.longitude,
                position.altitude,
                speed,
            )
            assert trajectory.position_at(t_ms) == position
            assert trajectory.speed_at(t_ms) == speed


class ReferenceTickReceiver(GpsReceiver):
    """The tick :meth:`GpsReceiver._emit_fix` replaced, kept as the
    reference: a ground-truth :class:`GeoPoint` from the linear scan,
    noise converted by ``m / 111_200.0``, the scanned speed, and
    ``decide("gps.fix")`` on every tick whether or not a rule exists.
    Every fix is built at the tick and published on the bus, its only
    consumer: the battery and the platforms subscribed there before the
    fence pass (see ``tests/device/test_fix_path.py``)."""

    def __init__(self, *args, injector=None, **kwargs):
        super().__init__(*args, injector=injector, **kwargs)
        self.every_tick_injector = injector
        self._reference_fix = None

    @property
    def last_fix(self):
        return self._reference_fix

    def _emit_fix(self):
        if self.every_tick_injector is not None:
            fault = self.every_tick_injector.decide("gps.fix")
            if fault is not None:
                if fault.kind == "stale" and self._reference_fix is not None:
                    self.stale_fixes += 1
                    self._bus.publish(TOPIC_FIX, self._reference_fix)
                else:
                    self.lost_fixes += 1
                return
        truth = _reference_position(self._trajectory, self._scheduler.clock.now_ms)
        noisy = GeoPoint(
            latitude=truth.latitude
            + _meters_to_lat_deg(self._rng.gauss(0.0, self._accuracy_m)),
            longitude=truth.longitude
            + _meters_to_lat_deg(self._rng.gauss(0.0, self._accuracy_m)),
            altitude=truth.altitude,
        )
        now = self._scheduler.clock.now_ms
        fix = GpsFix(
            point=noisy,
            timestamp_ms=now,
            accuracy_m=self._accuracy_m,
            speed_mps=_reference_speed(self._trajectory, now),
        )
        self._reference_fix = fix
        self._bus.publish(TOPIC_FIX, fix)


def _meters_to_lat_deg(meters):
    return meters / 111_200.0


def _run_receiver(receiver_cls, trajectory, plan, seed, run_ms, **kwargs):
    """Everything a receiver's ticks leave behind, over ``run_ms``."""
    scheduler = Scheduler(SimulatedClock())
    bus = EventBus()
    injector = None if plan is None else FaultInjector(plan, scheduler.clock)
    receiver = receiver_cls(
        scheduler, bus, trajectory, seed=seed, injector=injector, **kwargs
    )
    published = []
    bus.subscribe(TOPIC_FIX, lambda topic, fix: published.append(fix))
    receiver.power_on()
    scheduler.run_for(run_ms)
    return {
        "published": published,
        "last_fix": receiver.last_fix,
        "lost": receiver.lost_fixes,
        "stale": receiver.stale_fixes,
        "schedule": None if injector is None else injector.schedule(),
        "rng": receiver._rng.getstate(),
    }


#: Waypoint and tick instants on one 250 ms grid, so ticks land exactly on
#: waypoints (and on the ends of the trajectory) as well as between them.
_GRID_MS = 250.0

_TICK_WAYPOINTS = st.lists(
    st.tuples(
        st.one_of(
            st.integers(0, 160).map(lambda k: k * _GRID_MS),
            st.floats(-5_000.0, 45_000.0, allow_nan=False),
        ),
        st.floats(-80.0, 80.0, allow_nan=False),
        st.floats(-179.0, 179.0, allow_nan=False),
        st.floats(-500.0, 9_000.0, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda w: w[0],
)


@st.composite
def _fix_rules(draw):
    start_ms, end_ms = draw(
        st.one_of(
            st.just((0.0, None)),
            st.tuples(
                st.integers(0, 40).map(lambda k: k * _GRID_MS),
                st.integers(1, 40).map(lambda k: k * _GRID_MS),
            ).map(lambda w: (w[0], w[0] + w[1])),
        )
    )
    return FaultRule(
        "gps.fix",
        draw(st.sampled_from(FAULT_SITES["gps.fix"])),
        draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.25, 0.5, 1.0]))),
        start_ms=start_ms,
        end_ms=end_ms,
        max_faults=draw(st.one_of(st.none(), st.integers(1, 6))),
    )


_OTHER_SITE_RULES = st.sampled_from(
    [site for site in FAULT_SITES if site != "gps.fix"]
).flatmap(
    lambda site: st.builds(
        FaultRule,
        st.just(site),
        st.sampled_from(FAULT_SITES[site]),
        st.floats(0.0, 1.0),
    )
)

#: A ``gps.fix`` rule first: hypothesis favours the first alternative.
_PLANS = st.one_of(
    st.builds(
        lambda seed, rule: FaultPlan(seed=seed, rules=(rule,)),
        st.integers(0, 2**16),
        _fix_rules(),
    ),
    st.none(),
    st.builds(
        lambda seed, rules: FaultPlan(seed=seed, rules=tuple(rules)),
        st.integers(0, 2**16),
        st.lists(_OTHER_SITE_RULES, min_size=1, max_size=3),
    ),
)


class TestTickAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        waypoints=_TICK_WAYPOINTS,
        plan=_PLANS,
        seed=st.integers(0, 2**32),
        accuracy_m=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
        ttff_ms=st.integers(0, 12).map(lambda k: k * _GRID_MS),
        interval_ms=st.one_of(
            st.sampled_from([_GRID_MS, 2 * _GRID_MS, 4 * _GRID_MS, 6 * _GRID_MS]),
            st.floats(50.0, 3_000.0),
        ),
        run_ms=st.one_of(st.floats(0.0, 45_000.0), st.just(45_000.0)),
    )
    def test_fixes_faults_and_draws_match_the_reference(
        self, waypoints, plan, seed, accuracy_m, ttff_ms, interval_ms, run_ms
    ):
        trajectory = Trajectory(
            [Waypoint(t, GeoPoint(lat, lon, alt)) for t, lat, lon, alt in waypoints]
        )
        kwargs = dict(
            accuracy_m=accuracy_m,
            time_to_first_fix_ms=ttff_ms,
            fix_interval_ms=interval_ms,
        )
        lean = _run_receiver(GpsReceiver, trajectory, plan, seed, run_ms, **kwargs)
        reference = _run_receiver(
            ReferenceTickReceiver, trajectory, plan, seed, run_ms, **kwargs
        )
        assert lean == reference

    @pytest.mark.parametrize(
        "rule",
        [
            FaultRule("gps.fix", "lost", 0.5),
            FaultRule("gps.fix", "stale", 0.5),
            FaultRule("gps.fix", "stale", 1.0, start_ms=4_000.0, end_ms=9_000.0),
            FaultRule("gps.fix", "lost", 0.7, start_ms=1_000.0, max_faults=3),
        ],
        ids=["lost", "stale", "stale-window", "lost-capped"],
    )
    def test_faulted_runs_match_the_reference(self, rule):
        trajectory = Trajectory(
            [
                Waypoint(0.0, GeoPoint(28.6, 77.2, 200.0)),
                Waypoint(7_000.0, GeoPoint(28.61, 77.21, 210.0)),
                Waypoint(15_000.0, GeoPoint(28.6, 77.22, 205.0)),
            ]
        )
        plan = FaultPlan(seed=7, rules=(rule,))
        kwargs = dict(time_to_first_fix_ms=1_000.0, fix_interval_ms=1_000.0)
        lean = _run_receiver(GpsReceiver, trajectory, plan, 11, 20_000.0, **kwargs)
        reference = _run_receiver(
            ReferenceTickReceiver, trajectory, plan, 11, 20_000.0, **kwargs
        )
        assert lean == reference
        assert lean[rule.kind] > 0
        assert lean["lost"] + lean["stale"] == len(lean["schedule"])

    def test_a_rule_on_another_site_is_never_consulted(self, scheduler, bus):
        plan = FaultPlan(rules=(FaultRule("network.request", "drop", 1.0),))
        injector = FaultInjector(plan, scheduler.clock)
        consults = []
        decide = injector.decide
        injector.decide = lambda site: consults.append(site) or decide(site)
        receiver = GpsReceiver(
            scheduler,
            bus,
            _line_trajectory(),
            injector=injector,
            time_to_first_fix_ms=0.0,
        )
        receiver.power_on()
        scheduler.run_for(5_000.0)
        assert consults == []
        assert receiver.last_fix is not None

    def test_a_fix_rule_is_consulted_every_tick(self, scheduler, bus):
        plan = FaultPlan(rules=(FaultRule("gps.fix", "lost", 0.0),))
        injector = FaultInjector(plan, scheduler.clock)
        consults = []
        decide = injector.decide
        injector.decide = lambda site: consults.append(site) or decide(site)
        receiver = GpsReceiver(
            scheduler,
            bus,
            _line_trajectory(),
            injector=injector,
            time_to_first_fix_ms=0.0,
        )
        receiver.power_on()
        scheduler.run_for(5_000.0)
        assert consults == ["gps.fix"] * 6
