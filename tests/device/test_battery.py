"""Tests for the battery accounting model."""

import pytest

from repro.device.battery import Battery


class TestBattery:
    def test_full_at_start(self):
        battery = Battery(capacity_mwh=1_000.0, level_mwh=1_000.0)
        assert battery.fraction == 1.0
        assert not battery.is_low

    def test_drain_reduces_level(self):
        battery = Battery(capacity_mwh=1_000.0, level_mwh=1_000.0)
        battery.drain("gps", 100.0)
        assert battery.level_mwh == 900.0

    def test_drain_floors_at_zero(self):
        battery = Battery(capacity_mwh=100.0, level_mwh=100.0)
        battery.drain("radio", 500.0)
        assert battery.level_mwh == 0.0
        assert battery.is_empty

    def test_negative_drain_rejected(self):
        with pytest.raises(ValueError):
            Battery().drain("x", -1.0)

    def test_drain_report_by_operation(self):
        battery = Battery()
        battery.drain("gps", 10.0)
        battery.drain("gps", 5.0)
        battery.drain("radio", 2.0)
        assert battery.drain_report() == {"gps": 15.0, "radio": 2.0}

    def test_low_signal_fires_once(self):
        battery = Battery(capacity_mwh=100.0, level_mwh=100.0, low_threshold_fraction=0.5)
        fired = []
        battery.on_low.connect(fired.append)
        battery.drain("x", 60.0)
        battery.drain("x", 10.0)
        assert len(fired) == 1

    def test_recharge_rearms_signal(self):
        battery = Battery(capacity_mwh=100.0, level_mwh=100.0, low_threshold_fraction=0.5)
        fired = []
        battery.on_low.connect(fired.append)
        battery.drain("x", 60.0)
        battery.recharge()
        assert battery.fraction == 1.0
        battery.drain("x", 60.0)
        assert len(fired) == 2

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            Battery(capacity_mwh=0.0)
        with pytest.raises(ValueError):
            Battery(low_threshold_fraction=1.5)

    def test_level_clamped_to_capacity(self):
        battery = Battery(capacity_mwh=100.0, level_mwh=500.0)
        assert battery.level_mwh == 100.0


class TestLowSignalEdges:
    """The once-only low signal at the two edges of the inlined drain."""

    def test_fires_once_when_a_drain_lands_exactly_on_the_threshold(self):
        battery = Battery(
            capacity_mwh=100.0, level_mwh=100.0, low_threshold_fraction=0.25
        )
        fired = []
        battery.on_low.connect(fired.append)
        battery.drain("gps.fix", 50.0)
        battery.drain("radio", 25.0)  # 25 / 100 == 0.25 exactly
        assert fired == [0.25]
        battery.drain("gps.fix", 0.5)
        battery.drain("radio", 0.0)
        assert fired == [0.25]
        assert battery.level_mwh == 24.5
        assert battery.drain_report() == {"gps.fix": 50.5, "radio": 25.0}

    def test_fires_once_when_a_drain_floors_the_level_at_zero(self):
        battery = Battery(
            capacity_mwh=100.0, level_mwh=100.0, low_threshold_fraction=0.15
        )
        fired = []
        battery.on_low.connect(fired.append)
        battery.drain("radio", 250.0)
        assert fired == [0.0]
        assert battery.level_mwh == 0.0 and battery.is_empty
        battery.drain("radio", 10.0)
        battery.drain("gps.fix", 0.25)
        assert fired == [0.0]
        assert battery.level_mwh == 0.0
        # The report sums what was asked, not what the floor let through.
        assert battery.drain_report() == {"radio": 260.0, "gps.fix": 0.25}
