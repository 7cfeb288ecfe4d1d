"""Payload power-budget pipeline tests."""

from __future__ import annotations

import math

import pytest

from leonav.payload import (
    ClockUnit,
    clock_budget_w,
    gnss_equivalent_power_w,
    leo_payload_power_w,
    per_signal_bus_power_w,
    signal_generation_w,
)
from leonav.scenario import PayloadConfig


class TestHeritage:
    def test_default_figures(self):
        h = PayloadConfig()
        assert h.total_payload_w == 900.0
        assert (h.rf_output_w_low, h.rf_output_w_high) == (254.0, 273.0)
        assert h.pa_efficiency == 0.51
        assert h.n_signals == 10
        assert [(c.name, c.unit_power_w, c.count) for c in h.clocks] == [
            ("rubidium", 35.0, 2),
            ("hydrogen_maser", 70.0, 2),
        ]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(total_payload_w=0.0), "total_payload_w"),
            (dict(rf_output_w_low=-1.0), "rf_output_w_low"),
            (dict(rf_output_w_low=300.0, rf_output_w_high=254.0), "rf_output_w_high"),
            (dict(pa_efficiency=0.0), "pa_efficiency"),
            (dict(pa_efficiency=1.5), "pa_efficiency"),
            (dict(n_signals=0), "n_signals"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PayloadConfig(**kwargs)

    def test_clock_unit_validation(self):
        with pytest.raises(ValueError, match="unit_power_w"):
            ClockUnit("x", 0.0)
        with pytest.raises(ValueError, match="count"):
            ClockUnit("x", 10.0, 0)


class TestBudgetPieces:
    def test_clock_budget(self):
        assert clock_budget_w(PayloadConfig().clocks) == pytest.approx(210.0)
        assert clock_budget_w((ClockUnit("csac", 0.12, 3),)) == pytest.approx(0.36)

    def test_signal_generation(self):
        # 273 W of RF at 51% efficiency costs 535.29 W of bus power
        assert signal_generation_w(273.0, 0.51) == pytest.approx(535.2941176, abs=1e-6)
        assert signal_generation_w(254.0, 0.51) == pytest.approx(498.0392157, abs=1e-6)
        assert signal_generation_w(100.0, 1.0) == pytest.approx(100.0)

    def test_per_signal_power(self):
        got = per_signal_bus_power_w(273.0, 10, 0.51)
        assert got == pytest.approx(53.52941176, abs=1e-7)
        assert got == pytest.approx(signal_generation_w(273.0, 0.51) / 10.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="rf_output_w"):
            signal_generation_w(0.0, 0.5)
        with pytest.raises(ValueError, match="pa_efficiency"):
            signal_generation_w(100.0, 1.01)
        with pytest.raises(ValueError, match="n_signals"):
            per_signal_bus_power_w(100.0, 0, 0.5)


class TestLeoPayloadPower:
    def test_two_signal_range(self):
        per_signal = per_signal_bus_power_w(273.0, 10, 0.51)
        low = leo_payload_power_w(2, per_signal, 0.0)
        high = leo_payload_power_w(2, per_signal, 0.9)
        assert low == pytest.approx(107.0588235, abs=1e-6)
        assert high == pytest.approx(203.4117647, abs=1e-6)
        assert high == pytest.approx(low * 1.9, rel=1e-12)

    def test_zero_overhead_is_signals_times_per_signal(self):
        assert leo_payload_power_w(3, 50.0, overhead=0.0) == pytest.approx(150.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_signals"):
            leo_payload_power_w(0, 50.0, 0.9)
        with pytest.raises(ValueError, match="per_signal_w"):
            leo_payload_power_w(2, 0.0, 0.9)
        with pytest.raises(ValueError, match="overhead"):
            leo_payload_power_w(2, 50.0, overhead=-0.1)


class TestGnssEquivalent:
    def test_divides_by_the_linear_gain(self):
        # 203.41 W shrunk by 10 dB and by 6.02 dB (a 10x and a 4x footprint advantage)
        low = gnss_equivalent_power_w(203.4117647, 10.0)
        high = gnss_equivalent_power_w(203.4117647, 10.0 * math.log10(4.0))
        assert low == pytest.approx(20.34117647, abs=1e-6)
        assert high == pytest.approx(50.85294118, abs=1e-6)
        assert high == pytest.approx(low * 2.5, rel=1e-9)

    def test_zero_gain_identity(self):
        assert gnss_equivalent_power_w(180.0, 0.0) == 180.0

    def test_validation(self):
        with pytest.raises(ValueError, match="power_w"):
            gnss_equivalent_power_w(0.0, 10.0)
        with pytest.raises(ValueError, match="footprint_gain_db"):
            gnss_equivalent_power_w(100.0, -1.0)
