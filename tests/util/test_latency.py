"""Tests for the latency model."""

import pytest

from repro.util.latency import LatencyModel


class TestLatencyModel:
    def test_deterministic_without_jitter(self):
        model = LatencyModel(mean_ms={"op": 50.0})
        assert model.draw("op") == 50.0
        assert model.draw("op") == 50.0

    def test_default_for_unknown_operation(self):
        model = LatencyModel(default_ms=3.0)
        assert model.draw("anything") == 3.0

    def test_jitter_varies_but_stays_positive(self):
        model = LatencyModel(mean_ms={"op": 100.0}, jitter_fraction=0.5, seed=1)
        draws = [model.draw("op") for _ in range(200)]
        assert all(d >= 0.0 for d in draws)
        assert len(set(draws)) > 100  # actually varying

    def test_jitter_seeded_reproducibly(self):
        a = LatencyModel(mean_ms={"op": 100.0}, jitter_fraction=0.1, seed=42)
        b = LatencyModel(mean_ms={"op": 100.0}, jitter_fraction=0.1, seed=42)
        assert [a.draw("op") for _ in range(20)] == [b.draw("op") for _ in range(20)]

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(jitter_fraction=-0.1)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(mean_ms={"op": -1.0})

    def test_negative_default_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(default_ms=-1.0)

    def test_mean_for(self):
        model = LatencyModel(mean_ms={"op": 9.0}, default_ms=1.0)
        assert model.mean_for("op") == 9.0
        assert model.mean_for("other") == 1.0

    def test_merged_with_overrides(self):
        base = LatencyModel(mean_ms={"a": 1.0, "b": 2.0})
        merged = base.merged_with({"b": 20.0, "c": 3.0})
        assert merged.mean_for("a") == 1.0
        assert merged.mean_for("b") == 20.0
        assert merged.mean_for("c") == 3.0
        assert base.mean_for("b") == 2.0  # original untouched

    def test_zero_mean_never_jitters(self):
        model = LatencyModel(mean_ms={"op": 0.0}, jitter_fraction=0.5, seed=0)
        assert model.draw("op") == 0.0
