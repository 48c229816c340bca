"""The device's one proximity pass over each GPS fix.

Both platform location stacks watch circles on the sphere: Android's
proximity alerts and S60's JSR-179 proximity listeners.  Each platform
hands the receiver its own list of fence records once
(:meth:`~repro.device.gps.GpsReceiver.watch`).  On every fix
:func:`run_fences` walks a snapshot of each list and hands every fence to
that platform's visitor, which asks :func:`contains` whether the fix lies
inside it.  What a fence means stays with the platform: Android's expiry
and primed enter/exit events, S60's one-shot entry.  (The visitor asks,
rather than being told, because an expired Android alert is dropped
before its distance is computed: a haversine of an infinite centre
raises.)

A fence record has ``latitude``, ``longitude`` and ``radius_m``, and a
``box`` attribute that starts ``None``.  The pass stores the fence's
:func:`fence_box` there at the fence's first evaluation, so registering a
fence costs nothing extra.

The box only rejects.  A fix outside it is outside the circle, and a fix
inside it gets exactly the comparison the platforms always made,
``haversine_m(fix, centre) <= radius_m``.  So :func:`contains` gives the
same answer as that comparison for every fix, and most fixes far from a
fence cost two or three float comparisons instead of a haversine.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Sequence, Tuple

from repro.util.clock import SimulatedClock
from repro.util.geo import EARTH_RADIUS_M, haversine_m

#: A fence's box in degrees: (south, north, centre longitude, longitude
#: half-width).  The half-width is measured the short way round, so a
#: box may span the antimeridian.
Box = Tuple[float, float, float, float]

#: The box of a fence whose centre or radius the bound cannot trust
#: (non-finite, out of range, or a circle that may cover the sphere):
#: it rejects nothing, so every fix gets the haversine.
NO_BOX: Box = (-math.inf, math.inf, 0.0, math.inf)

#: Slack added to each half-width, relative and in degrees (1e-9 degrees
#: is about 0.1 mm).  Both dwarf the float error of ``haversine_m``, so no
#: fix that it puts inside a circle falls outside the circle's box.
_SLACK_REL = 1e-6
_SLACK_DEG = 1e-9

#: Below this cosine of the box's poleward edge (within about 6 m of a
#: pole) the box bounds latitude only: there a longitude bound would lean
#: on a cosine whose rounding error is no longer small beside it.
_POLAR_COS = 1e-6

#: A delivered fix: (latitude, longitude, altitude, timestamp_ms, speed_mps).
Fix = Tuple[float, float, float, float, float]

#: ``visit(fence, now_ms, fix)``; see :func:`run_fences`.
Visit = Callable[[Any, float, Fix], None]


def fence_box(latitude: float, longitude: float, radius_m: float) -> Box:
    """A box, in degrees, that holds every point within ``radius_m`` of
    the centre.

    Latitude: a point at great-circle distance ``d`` from the centre is
    at most ``d / R`` radians of latitude away.  Longitude: with every
    point of the latitude band at most ``phi`` from the equator (the
    band's poleward edge), the haversine of the distance is at least
    ``cos(phi)**2 * hav(dlon)``, so a point more than
    ``2 * asin(sin(d/2R) / cos(phi))`` of longitude away is outside.  A
    band that reaches a pole gets no longitude bound.
    """
    if not (
        -90.0 <= latitude <= 90.0
        and -180.0 <= longitude <= 180.0
        and 0.0 < radius_m < math.inf
    ):
        return NO_BOX
    angle = radius_m / EARTH_RADIUS_M
    if angle >= math.pi:
        return NO_BOX
    half_lat = math.degrees(angle) * (1.0 + _SLACK_REL) + _SLACK_DEG
    half_lon = math.inf
    poleward = abs(latitude) + half_lat
    if poleward < 90.0:
        cos_edge = math.cos(math.radians(poleward))
        if cos_edge > _POLAR_COS:
            ratio = math.sin(angle / 2.0) / cos_edge
            if ratio < 1.0:
                half_lon = (
                    math.degrees(2.0 * math.asin(ratio)) * (1.0 + _SLACK_REL)
                    + _SLACK_DEG
                )
    return (latitude - half_lat, latitude + half_lat, longitude, half_lon)


def contains(fence: Any, fix: Fix) -> bool:
    """Whether ``fix`` lies inside ``fence``: ``haversine_m(fix, centre)
    <= radius_m``, with the box test first.  The fix must be a valid
    coordinate, as every delivered fix is."""
    latitude, longitude = fix[0], fix[1]
    box = fence.box
    if box is None:
        box = fence.box = fence_box(fence.latitude, fence.longitude, fence.radius_m)
    south, north, centre_lon, half_lon = box
    if not south <= latitude <= north:
        return False
    offset = abs(longitude - centre_lon)
    if offset > 180.0:  # the short way round, across the antimeridian
        offset = 360.0 - offset
    if offset > half_lon:
        return False
    return (
        haversine_m(latitude, longitude, fence.latitude, fence.longitude)
        <= fence.radius_m
    )


def run_fences(
    watched: Sequence[Tuple[List[Any], Visit]],
    fix: Fix,
    clock: SimulatedClock,
) -> None:
    """Hand one delivered ``fix`` to every watched fence.

    ``watched`` holds ``(fences, visit)`` pairs in the order the
    platforms first watched the receiver.  Every delivery passes a
    ``fix`` tuple of its own, so a visitor can share what it builds from
    one delivery by identity.  Each list is walked as a snapshot taken
    when its turn comes, so a fence that a visitor's callback removes is
    still visited on this fix, and one it adds waits for the next.
    ``now_ms`` is read as each list's turn comes.
    """
    for fences, visit in watched:
        if fences:
            now_ms = clock.now_ms
            for fence in list(fences):
                visit(fence, now_ms, fix)
