"""Arrhenius decay-model behaviour and calibration."""

import pytest

from repro.circuits.leakage import DRAM_DECAY, SRAM_DECAY, ArrheniusDecay
from repro.errors import CalibrationError
from repro.units import celsius_to_kelvin


class TestArrheniusBasics:
    def test_time_constant_grows_when_colder(self):
        warm = SRAM_DECAY.time_constant(celsius_to_kelvin(25.0))
        cold = SRAM_DECAY.time_constant(celsius_to_kelvin(-40.0))
        assert cold > warm

    def test_surviving_fraction_decreases_with_time(self):
        temp_k = celsius_to_kelvin(25.0)
        short = SRAM_DECAY.surviving_fraction(1e-6, temp_k)
        long = SRAM_DECAY.surviving_fraction(1e-3, temp_k)
        assert short > long

    def test_zero_time_keeps_everything(self):
        assert SRAM_DECAY.surviving_fraction(0.0, 300.0) == pytest.approx(1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(CalibrationError):
            SRAM_DECAY.surviving_fraction(-1.0, 300.0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(CalibrationError):
            SRAM_DECAY.time_constant(0.0)

    def test_bad_prefactor_rejected(self):
        with pytest.raises(CalibrationError):
            ArrheniusDecay(prefactor_s=0.0, activation_k=1000.0)

    def test_bad_activation_rejected(self):
        with pytest.raises(CalibrationError):
            ArrheniusDecay(prefactor_s=1e-8, activation_k=-5.0)


class TestCalibration:
    """DESIGN.md calibration targets from the remanence literature."""

    def test_sram_room_temperature_tau_tens_of_microseconds(self):
        tau = SRAM_DECAY.time_constant(celsius_to_kelvin(25.0))
        assert 5e-6 < tau < 100e-6

    def test_sram_dies_within_ms_at_minus_40(self):
        # Paper Table 1 / ref [2]: no retention at -40C for ms-scale cuts.
        fraction = SRAM_DECAY.surviving_fraction(
            4e-3, celsius_to_kelvin(-40.0)
        )
        assert fraction < 0.05

    def test_sram_partial_retention_at_minus_110(self):
        # Ref [2]: ~80% bit retention after 20 ms at -110C; surviving
        # voltage must still exceed typical restore thresholds (~0.1V
        # of 0.8V => fraction ~0.125) for most cells.
        fraction = SRAM_DECAY.surviving_fraction(
            20e-3, celsius_to_kelvin(-110.0)
        )
        assert 0.125 < fraction < 0.5

    def test_dram_retains_seconds_at_room_temperature(self):
        tau = DRAM_DECAY.time_constant(celsius_to_kelvin(25.0))
        assert 0.5 < tau < 10.0

    def test_dram_retains_minutes_when_chilled(self):
        tau = DRAM_DECAY.time_constant(celsius_to_kelvin(-50.0))
        assert tau > 60.0

    def test_dram_outlasts_sram_everywhere(self):
        for celsius in (25.0, -40.0, -110.0):
            kelvin = celsius_to_kelvin(celsius)
            assert DRAM_DECAY.time_constant(kelvin) > SRAM_DECAY.time_constant(
                kelvin
            )
