"""Tests for the GPS receiver and trajectory playback."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.device.gps import GpsReceiver, Trajectory, Waypoint, TOPIC_FIX, TOPIC_STATE
from repro.errors import ConfigurationError, SimulationError
from repro.util.geo import GeoPoint, destination_point, interpolate


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
            span = later.t_ms - earlier.t_ms
            return interpolate(
                earlier.point, later.point, (t_ms - earlier.t_ms) / span
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
            assert trajectory.position_at(t_ms) == _reference_position(trajectory, t_ms)
            assert trajectory.speed_at(t_ms) == _reference_speed(trajectory, t_ms)
