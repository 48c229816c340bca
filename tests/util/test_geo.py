"""Tests (incl. property-based) for the geodesic helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.geo import (
    GeoPoint,
    bearing_deg,
    destination_point,
    haversine_m,
)

#: Strategies for valid coordinates (away from the poles, where bearing
#: math degenerates).
lat = st.floats(min_value=-80.0, max_value=80.0)
lon = st.floats(min_value=-179.0, max_value=179.0)


class TestGeoPoint:
    def test_valid_construction(self):
        point = GeoPoint(28.6, 77.2, 100.0)
        assert point.latitude == 28.6
        assert point.altitude == 100.0

    @pytest.mark.parametrize("bad_lat", [-90.1, 91.0, 180.0])
    def test_bad_latitude_rejected(self, bad_lat):
        with pytest.raises(ValueError):
            GeoPoint(bad_lat, 0.0)

    @pytest.mark.parametrize("bad_lon", [-180.1, 181.0])
    def test_bad_longitude_rejected(self, bad_lon):
        with pytest.raises(ValueError):
            GeoPoint(0.0, bad_lon)

    def test_distance_to_self_is_zero(self):
        point = GeoPoint(10.0, 20.0)
        assert point.distance_to_m(point) == 0.0

    def test_known_distance(self):
        # One degree of latitude is ~111.2 km.
        assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(111_195, rel=0.01)


class TestHaversine:
    @given(lat, lon, lat, lon)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        d_ab = haversine_m(lat1, lon1, lat2, lon2)
        d_ba = haversine_m(lat2, lon2, lat1, lon1)
        assert d_ab == pytest.approx(d_ba, abs=1e-6)

    @given(lat, lon)
    def test_identity(self, latitude, longitude):
        assert haversine_m(latitude, longitude, latitude, longitude) == 0.0

    @given(lat, lon, lat, lon)
    def test_non_negative(self, lat1, lon1, lat2, lon2):
        assert haversine_m(lat1, lon1, lat2, lon2) >= 0.0


class TestDestinationPoint:
    @given(lat, lon, st.floats(min_value=0.0, max_value=359.9),
           st.floats(min_value=1.0, max_value=100_000.0))
    def test_round_trip_distance(self, latitude, longitude, bearing, distance):
        """Travelling D metres lands D metres away (spherical model)."""
        target = destination_point(latitude, longitude, bearing, distance)
        measured = haversine_m(latitude, longitude, target.latitude, target.longitude)
        assert measured == pytest.approx(distance, rel=1e-3)

    def test_eastward_increases_longitude(self):
        target = destination_point(0.0, 0.0, 90.0, 10_000.0)
        assert target.longitude > 0.0
        assert abs(target.latitude) < 0.01

    def test_northward_increases_latitude(self):
        target = destination_point(0.0, 0.0, 0.0, 10_000.0)
        assert target.latitude > 0.0


class TestBearing:
    def test_due_north(self):
        assert bearing_deg(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.0, abs=0.1)

    def test_due_east(self):
        assert bearing_deg(0.0, 0.0, 0.0, 1.0) == pytest.approx(90.0, abs=0.1)

    @given(lat, lon, lat, lon)
    def test_in_range(self, lat1, lon1, lat2, lon2):
        bearing = bearing_deg(lat1, lon1, lat2, lon2)
        assert 0.0 <= bearing < 360.0
