"""The composed simulated handset.

:class:`MobileDevice` is the paper's "Hardware Abstraction Layer" box in
Figure 3 — everything below the platform middleware.  One device owns one
virtual clock/scheduler and one event bus; platform substrates mount on a
device and translate its raw capabilities into their own API styles.
"""

from __future__ import annotations

from typing import Optional

from repro.device.battery import Battery
from repro.device.calendar import CalendarStore
from repro.device.gps import GpsReceiver, Trajectory
from repro.device.messaging import SmsCenter
from repro.device.network import SimulatedNetwork
from repro.device.pim import ContactStore
from repro.device.profiles import DeviceProfile, ANDROID_DEV_PHONE
from repro.device.telephony import TelephonyUnit
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import Observability
from repro.util.clock import Scheduler, SimulatedClock
from repro.util.events import EventBus
from repro.util.latency import LatencyModel


class MobileDevice:
    """A complete simulated handset.

    Parameters
    ----------
    phone_number:
        The device's MSISDN; used to attach to the SMS center.
    profile:
        Hardware capabilities (defaults to an Android-dev-phone-like unit).
    sms_center:
        Shared SMSC.  Devices created without one get a private center
        (fine for single-device tests).
    network:
        Shared data network.  Same defaulting rule.
    latency:
        Platform-native latency model, threaded through to subsystems that
        need it (primarily the network).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` driving the
        device's fault injector (``device.faults``).  The injector is
        always present — without a plan it is an inert no-op — and is
        consulted by the GPS, SMSC, network and WebView bridge.  Shared
        ``sms_center``/``network`` instances keep whatever injector they
        were built with; the plan only wires the private subsystems this
        constructor creates.
    observability:
        Optional :class:`~repro.obs.Observability` hub.  Like the fault
        injector, a hub is always present (``device.obs``) — the default
        one has a no-op tracer, so instrumented paths stay at their
        uninstrumented cost.  The device binds its virtual clock to the
        hub so span stamps are in device time.
    """

    def __init__(
        self,
        phone_number: str,
        *,
        profile: Optional[DeviceProfile] = None,
        sms_center: Optional[SmsCenter] = None,
        network: Optional[SimulatedNetwork] = None,
        scheduler: Optional[Scheduler] = None,
        latency: Optional[LatencyModel] = None,
        trajectory: Optional[Trajectory] = None,
        gps_seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        if not phone_number:
            raise ValueError("phone_number must be non-empty")
        self.phone_number = phone_number
        self.profile = profile or ANDROID_DEV_PHONE
        self.scheduler = scheduler or Scheduler(SimulatedClock())
        self.bus = EventBus()
        self.battery = Battery()
        self.latency = latency or LatencyModel()
        self.obs = observability or Observability.disabled()
        self.obs.bind_clock(self.scheduler.clock)
        self.faults = FaultInjector(
            fault_plan, clock=self.scheduler.clock, observability=self.obs
        )
        self.gps = GpsReceiver(
            self.scheduler,
            self.bus,
            trajectory,
            seed=gps_seed,
            injector=self.faults,
            battery=self.battery,  # every fix costs receiver power
        )
        self.telephony = TelephonyUnit(self.scheduler, self.bus)
        self.contacts = ContactStore()
        self.calendar = CalendarStore()
        self.sms_center = sms_center or SmsCenter(
            self.scheduler, self.bus, injector=self.faults
        )
        self.network = network or SimulatedNetwork(
            self.scheduler, injector=self.faults
        )
        self._inbox = []
        self.sms_center.attach(self.phone_number, self._inbox.append)

    @property
    def clock(self) -> SimulatedClock:
        """The device's virtual clock (shared with its scheduler)."""
        return self.scheduler.clock

    @property
    def inbox(self) -> list:
        """Messages delivered to this device, in arrival order."""
        return list(self._inbox)

    def run_for(self, delta_ms: float) -> int:
        """Advance the device's virtual time, running due events."""
        return self.scheduler.run_for(delta_ms)

    def set_trajectory(self, trajectory: Trajectory) -> None:
        """Script the device's movement (powers the GPS if needed)."""
        self.gps.set_trajectory(trajectory)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MobileDevice({self.phone_number!r}, profile={self.profile.name!r}, "
            f"t={self.clock.now_ms:.0f}ms)"
        )
