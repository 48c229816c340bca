"""Shared infrastructure: virtual time, events, geo math, latency models."""

from repro.util.clock import SimulatedClock, Scheduler, ScheduledTask
from repro.util.events import EventBus, Subscription
from repro.util.geo import GeoPoint, haversine_m, destination_point, bearing_deg
from repro.util.latency import LatencyModel
from repro.util.identifiers import IdGenerator

__all__ = [
    "SimulatedClock",
    "Scheduler",
    "ScheduledTask",
    "EventBus",
    "Subscription",
    "GeoPoint",
    "haversine_m",
    "destination_point",
    "bearing_deg",
    "LatencyModel",
    "IdGenerator",
]
