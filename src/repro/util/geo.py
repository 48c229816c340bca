"""Geodesic helpers shared by the GPS simulator and the location stacks.

All three platform substrates (and the proxies above them) need consistent
distance math so that proximity detection agrees with the trajectory
generator.  Distances are in metres, coordinates in decimal degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Mean Earth radius in metres (IUGG).
EARTH_RADIUS_M = 6_371_008.8


@dataclass(frozen=True)
class GeoPoint:
    """An immutable WGS-84-style coordinate triple."""

    latitude: float
    longitude: float
    altitude: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} out of [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} out of [-180, 180]")

    def distance_to_m(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in metres (altitude ignored)."""
        return haversine_m(
            self.latitude, self.longitude, other.latitude, other.longitude
        )


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres between two (lat, lon) pairs."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def bearing_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial bearing from point 1 to point 2, degrees clockwise from north."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(
        dlam
    )
    return (math.degrees(math.atan2(y, x)) + 360.0) % 360.0


def destination_point(
    lat: float, lon: float, bearing: float, distance_m: float
) -> "GeoPoint":
    """The point reached from (lat, lon) travelling ``distance_m`` at ``bearing``.

    Uses the spherical direct geodesic formula; good to well under a metre
    at the distances the workforce scenarios use.
    """
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing)
    phi1 = math.radians(lat)
    lam1 = math.radians(lon)
    phi2 = math.asin(
        math.sin(phi1) * math.cos(delta)
        + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    )
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    lon2 = (math.degrees(lam2) + 540.0) % 360.0 - 180.0
    return GeoPoint(math.degrees(phi2), lon2)
