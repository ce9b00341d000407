"""Decoupling networks, parasitics, and the surge description."""

import pytest

from repro.circuits.passives import (
    DecouplingNetwork,
    DisconnectSurge,
    SupplyLineParasitics,
)
from repro.errors import CalibrationError


class TestParasitics:
    def test_resistive_drop(self):
        line = SupplyLineParasitics(resistance_ohm=0.05)
        assert line.resistive_drop(2.0) == pytest.approx(0.1)

    def test_negative_values_rejected(self):
        with pytest.raises(CalibrationError):
            SupplyLineParasitics(resistance_ohm=-1.0)


class TestDecoupling:
    def test_sag_scales_with_deficit(self):
        caps = DecouplingNetwork(capacitance_f=100e-6, esr_ohm=0.0)
        assert caps.sag_from_deficit(2.0, 50e-6) == pytest.approx(
            2 * caps.sag_from_deficit(1.0, 50e-6)
        )

    def test_bigger_caps_sag_less(self):
        small = DecouplingNetwork(capacitance_f=10e-6)
        big = DecouplingNetwork(capacitance_f=100e-6)
        assert big.sag_from_deficit(1.0, 10e-6) < small.sag_from_deficit(
            1.0, 10e-6
        )

    def test_zero_deficit_only_esr(self):
        caps = DecouplingNetwork(esr_ohm=0.01)
        assert caps.sag_from_deficit(0.0, 1e-3) == 0.0

    def test_invalid_capacitance_rejected(self):
        with pytest.raises(CalibrationError):
            DecouplingNetwork(capacitance_f=0.0)

    def test_negative_deficit_rejected(self):
        with pytest.raises(CalibrationError):
            DecouplingNetwork().sag_from_deficit(-1.0, 1e-6)


class TestSurge:
    def test_defaults_match_paper_narrative(self):
        surge = DisconnectSurge()
        # Paper §6: current settles to ~8 mA after a few microseconds.
        assert surge.settle_current_a == pytest.approx(0.008)
        assert surge.duration_s < 1e-3

    def test_invalid_duration_rejected(self):
        with pytest.raises(CalibrationError):
            DisconnectSurge(duration_s=0.0)

    def test_negative_current_rejected(self):
        with pytest.raises(CalibrationError):
            DisconnectSurge(peak_current_a=-1.0)
