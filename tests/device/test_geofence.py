"""The fence box decides nothing on its own: ``contains`` must answer
exactly ``haversine_m(fix, centre) <= radius_m`` for every valid fix."""

import math
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import repro.device.geofence as geofence
from repro.device.geofence import NO_BOX, contains, fence_box
from repro.util.geo import EARTH_RADIUS_M, destination_point, haversine_m


@dataclass
class Fence:
    latitude: float
    longitude: float
    radius_m: float
    box: Optional[tuple] = None


def _exact(fence, latitude, longitude):
    return haversine_m(latitude, longitude, fence.latitude, fence.longitude) <= fence.radius_m


def _valid(latitude, longitude):
    return -90.0 <= latitude <= 90.0 and -180.0 <= longitude <= 180.0


def _wrap(longitude):
    """Into [-180, 180], the short way."""
    if longitude > 180.0:
        return longitude - 360.0
    if longitude < -180.0:
        return longitude + 360.0
    return longitude


_SIGN = st.sampled_from([-1.0, 1.0])
#: 1 - 10**-k for k up to 13: distances from an edge of 0.1 to about 1e-13.
_NEAR_ONE = st.integers(1, 13).map(lambda k: 1.0 - 10.0 ** -k)

_CENTRES = st.one_of(
    st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
    # near a pole
    st.tuples(
        st.tuples(_SIGN, st.one_of(_NEAR_ONE, st.just(1.0))).map(
            lambda s: s[0] * 90.0 * s[1]
        ),
        st.floats(-180.0, 180.0),
    ),
    # near the antimeridian
    st.tuples(
        st.floats(-90.0, 90.0),
        st.tuples(_SIGN, st.one_of(_NEAR_ONE, st.just(1.0))).map(
            lambda s: s[0] * 180.0 * s[1]
        ),
    ),
)

#: 1 mm to 20,000 km, log-uniform, and the circles the box cannot bound.
_RADII = st.one_of(
    st.floats(-3.0, math.log10(2e7)).map(lambda e: 10.0**e),
    st.sampled_from([1e-3, 2e7, math.nan, math.inf]),
)

#: Relative nudges onto, just inside and just outside an edge.
_NUDGES = st.one_of(
    st.just(0.0),
    st.tuples(_SIGN, st.integers(1, 15)).map(lambda s: s[0] * 10.0 ** -s[1]),
)


def _nudge(value, nudge):
    return value + nudge * max(abs(value), 1e-12)


@st.composite
def _cases(draw):
    """A fence and points near its box edges, its circle and the circle's
    easternmost and westernmost points."""
    latitude, longitude = draw(_CENTRES)
    radius = draw(_RADII)
    fence = Fence(latitude, longitude, radius)
    south, north, centre_lon, half_lon = fence_box(latitude, longitude, radius)
    points = []
    if math.isfinite(radius):
        for _ in range(3):
            point = destination_point(
                latitude,
                longitude,
                draw(st.floats(0.0, 360.0)),
                radius * (1.0 + draw(_NUDGES)),
            )
            points.append((point.latitude, point.longitude))
        angle = radius / EARTH_RADIUS_M
        phi = math.radians(latitude)
        if angle < math.pi / 2 and abs(math.sin(angle)) < abs(math.cos(phi)):
            # Where the circle reaches furthest in longitude.
            tangent_lat = math.degrees(math.asin(math.sin(phi) / math.cos(angle)))
            tangent_lon = math.degrees(math.asin(math.sin(angle) / math.cos(phi)))
            for side in (-1.0, 1.0):
                points.append(
                    (
                        _nudge(tangent_lat, draw(_NUDGES)),
                        _wrap(longitude + side * _nudge(tangent_lon, draw(_NUDGES))),
                    )
                )
    if math.isfinite(south):
        band = draw(st.floats(south, north))
        for edge in (south, north):
            points.append(
                (_nudge(edge, draw(_NUDGES)), _wrap(longitude + draw(st.floats(-1.0, 1.0))))
            )
        if math.isfinite(half_lon):
            for side in (-1.0, 1.0):
                points.append(
                    (band, _wrap(centre_lon + side * _nudge(half_lon, draw(_NUDGES))))
                )
    points.append((draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0))))
    return fence, [p for p in points if _valid(*p)]


class TestBoxIsExact:
    @settings(max_examples=1_000, deadline=None)
    @given(case=_cases())
    def test_contains_is_the_haversine_comparison(self, case):
        fence, points = case
        for latitude, longitude in points:
            assert contains(fence, (latitude, longitude)) == _exact(
                fence, latitude, longitude
            ), (fence, latitude, longitude)

    @pytest.mark.parametrize(
        "centre, fix",
        [
            ((0.0, 179.99), (0.0, -179.99)),
            ((0.0, -179.99), (0.0, 179.99)),
            ((45.0, 180.0), (45.0, -180.0)),
            ((-30.0, -180.0), (-30.0, 179.999)),
        ],
    )
    def test_a_fence_across_the_antimeridian_holds_the_fix(self, centre, fix):
        fence = Fence(centre[0], centre[1], 5_000.0)
        assert contains(fence, fix) and _exact(fence, *fix)

    def test_the_tangent_point_is_inside_the_box(self):
        # A 1,274 km circle at 75 N reaches 50.1 degrees of longitude east
        # of its centre at about 77 N.  Bounded at the centre's latitude,
        # the box would stop at 45.4 degrees.
        fence = Fence(75.0, 0.0, 0.2 * EARTH_RADIUS_M)
        tangent_lat = math.degrees(math.asin(math.sin(math.radians(75.0)) / math.cos(0.2)))
        tangent_lon = math.degrees(math.asin(math.sin(0.2) / math.cos(math.radians(75.0))))
        point = (tangent_lat, tangent_lon * (1.0 - 1e-9))
        assert _exact(fence, *point)
        assert contains(fence, point)

    def test_a_fix_outside_the_box_costs_no_haversine(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return haversine_m(*args)

        monkeypatch.setattr(geofence, "haversine_m", counted)
        fence = Fence(28.6, 77.2, 500.0)
        assert not contains(fence, (28.62, 77.2))  # north of the band
        assert not contains(fence, (28.6, 77.22))  # east of the half-width
        assert calls == []
        assert contains(fence, (28.6001, 77.2001))
        assert len(calls) == 1


class TestFenceBox:
    @pytest.mark.parametrize(
        "latitude, longitude, radius_m",
        [
            (math.nan, 0.0, 100.0),
            (0.0, math.inf, 100.0),
            (90.5, 0.0, 100.0),
            (0.0, -181.0, 100.0),
            (0.0, 0.0, math.nan),
            (0.0, 0.0, math.inf),
            (0.0, 0.0, 0.0),
            (0.0, 0.0, -5.0),
            (0.0, 0.0, math.pi * EARTH_RADIUS_M),  # may cover the sphere
        ],
    )
    def test_untrusted_fences_get_no_box(self, latitude, longitude, radius_m):
        assert fence_box(latitude, longitude, radius_m) == NO_BOX

    def test_a_band_reaching_a_pole_bounds_latitude_only(self):
        south, north, _, half_lon = fence_box(89.999, 10.0, 1_000.0)
        assert half_lon == math.inf
        assert north > 89.999 + 1_000.0 / EARTH_RADIUS_M * 180.0 / math.pi

    def test_a_small_fence_gets_a_tight_box(self):
        south, north, centre_lon, half_lon = fence_box(28.6, 77.2, 500.0)
        half_lat = math.degrees(500.0 / EARTH_RADIUS_M)
        assert north - 28.6 == pytest.approx(half_lat, rel=1e-5)
        assert 28.6 - south == pytest.approx(half_lat, rel=1e-5)
        assert centre_lon == 77.2
        assert half_lon == pytest.approx(half_lat / math.cos(math.radians(28.6)), rel=1e-3)

    def test_the_box_is_kept_on_the_fence(self):
        fence = Fence(28.6, 77.2, 500.0)
        contains(fence, (0.0, 0.0))
        assert fence.box == fence_box(28.6, 77.2, 500.0)
