"""Glitch pulse shapes and the RC-filtered die-seen waveform."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.circuits.passives import DecouplingNetwork, SupplyLineParasitics
from repro.circuits.supply import BenchSupply
from repro.errors import CalibrationError
from repro.glitch.waveform import GlitchPulse, die_waveform
from repro.units import nanoseconds


def _supply() -> BenchSupply:
    return BenchSupply(voltage_v=0.8, current_limit_a=5.0)


def _decoupling(capacitance_f: float = 470e-9) -> DecouplingNetwork:
    return DecouplingNetwork(capacitance_f=capacitance_f, esr_ohm=0.065)


class TestGlitchPulse:
    def test_drive_voltage_reaches_full_depth(self):
        pulse = GlitchPulse(
            offset_s=nanoseconds(100),
            width_s=nanoseconds(50),
            depth_v=0.5,
        )
        mid = pulse.offset_s + pulse.rise_s + pulse.width_s / 2
        assert pulse.drive_voltage(mid, 0.8) == pytest.approx(0.3)

    def test_drive_voltage_nominal_outside_window(self):
        pulse = GlitchPulse(nanoseconds(100), nanoseconds(50), 0.5)
        assert pulse.drive_voltage(0.0, 0.8) == 0.8
        assert pulse.drive_voltage(pulse.end_s + nanoseconds(1), 0.8) == 0.8

    def test_edges_ramp_linearly(self):
        pulse = GlitchPulse(
            nanoseconds(100), nanoseconds(50), 0.5,
            rise_s=nanoseconds(10),
        )
        half_edge = pulse.offset_s + nanoseconds(5)
        assert pulse.drive_voltage(half_edge, 0.8) == pytest.approx(0.55)

    def test_negative_parameters_rejected(self):
        with pytest.raises(CalibrationError):
            GlitchPulse(offset_s=-1e-9, width_s=nanoseconds(10), depth_v=0.2)
        with pytest.raises(CalibrationError):
            GlitchPulse(offset_s=0.0, width_s=0.0, depth_v=0.2)
        with pytest.raises(CalibrationError):
            GlitchPulse(offset_s=0.0, width_s=nanoseconds(10), depth_v=0.0)


class TestDieWaveform:
    def test_decoupling_attenuates_short_pulses(self):
        deep_drive = 0.5
        short = GlitchPulse(0.0, nanoseconds(10), deep_drive)
        wide = GlitchPulse(0.0, nanoseconds(400), deep_drive)
        short_wave = die_waveform(short, _supply(), _decoupling())
        wide_wave = die_waveform(wide, _supply(), _decoupling())
        # The wide pulse reaches (almost) full depth; the short one is
        # filtered well short of it by the same RC.
        assert wide_wave.minimum() == pytest.approx(0.3, abs=0.02)
        assert short_wave.minimum() > wide_wave.minimum() + 0.1

    def test_bigger_capacitance_filters_harder(self):
        pulse = GlitchPulse(0.0, nanoseconds(30), 0.5)
        small = die_waveform(pulse, _supply(), _decoupling(100e-9))
        large = die_waveform(pulse, _supply(), _decoupling(2000e-9))
        assert large.minimum() > small.minimum()

    def test_voltage_recovers_to_nominal(self):
        pulse = GlitchPulse(nanoseconds(20), nanoseconds(30), 0.5)
        wave = die_waveform(pulse, _supply(), _decoupling())
        assert wave.voltage_at(wave.time_s[-1]) == pytest.approx(0.8, abs=0.01)
        # Past the sampled window the rail is nominal by definition.
        assert wave.voltage_at(1.0) == 0.8

    def test_time_below_threshold_grows_with_width(self):
        narrow = die_waveform(
            GlitchPulse(0.0, nanoseconds(40), 0.5), _supply(), _decoupling()
        )
        wide = die_waveform(
            GlitchPulse(0.0, nanoseconds(120), 0.5), _supply(), _decoupling()
        )
        assert wide.time_below(0.6) > narrow.time_below(0.6)

    def test_depth_below_supply_rejected(self):
        pulse = GlitchPulse(0.0, nanoseconds(30), 0.9)
        with pytest.raises(CalibrationError):
            die_waveform(pulse, _supply(), _decoupling())


#: A power-of-two sample spacing: pulse edges drawn as whole multiples
#: of it land exactly on samples, so every branch boundary of
#: :meth:`GlitchPulse.drive_voltage` is sampled.
_EXACT_RESOLUTION_S = 2.0**-30


def _aligned_pulses() -> st.SearchStrategy:
    """Pulses whose offset, edges and flat part are whole samples."""
    steps = st.integers(min_value=1, max_value=80)
    return st.builds(
        lambda offset, width, rise, fall, depth: (
            GlitchPulse(
                offset_s=offset * _EXACT_RESOLUTION_S,
                width_s=width * _EXACT_RESOLUTION_S,
                depth_v=depth,
                rise_s=rise * _EXACT_RESOLUTION_S,
                fall_s=fall * _EXACT_RESOLUTION_S,
            ),
            _EXACT_RESOLUTION_S,
        ),
        st.integers(min_value=0, max_value=400),
        steps,
        steps,
        steps,
        st.floats(min_value=0.01, max_value=0.79),
    )


def _free_pulses() -> st.SearchStrategy:
    """Pulses at arbitrary float times, sampled every nanosecond."""
    times = st.floats(min_value=1e-11, max_value=nanoseconds(100))
    return st.builds(
        lambda offset, width, rise, fall, depth: (
            GlitchPulse(offset, width, depth, rise, fall), nanoseconds(1)
        ),
        st.floats(min_value=0.0, max_value=nanoseconds(400)),
        times,
        times,
        times,
        st.floats(min_value=0.01, max_value=0.79),
    )


class TestDieWaveformIdentity:
    @given(
        st.one_of(_aligned_pulses(), _free_pulses()),
        st.floats(min_value=1e-9, max_value=4e-6),
    )
    def test_equals_the_scalar_drive_through_a_per_sample_filter(
        self, pulse_and_resolution, capacitance_f
    ):
        pulse, resolution_s = pulse_and_resolution
        supply = _supply()
        decoupling = _decoupling(capacitance_f)
        wave = die_waveform(pulse, supply, decoupling, resolution_s=resolution_s)
        if resolution_s == _EXACT_RESOLUTION_S:
            flat_end_s = pulse.offset_s + pulse.rise_s + pulse.width_s
            for edge_s in (
                pulse.offset_s,
                pulse.offset_s + pulse.rise_s,
                flat_end_s,
                pulse.end_s,
            ):
                assert edge_s in wave.time_s

        nominal_v = supply.voltage_v
        tau = decoupling.capacitance_f * (
            decoupling.esr_ohm
            + SupplyLineParasitics().resistance_ohm
            + supply.source_resistance_ohm
        )
        alpha = 1.0 - math.exp(-resolution_s / tau)
        expected = []
        level = nominal_v
        for t_s in wave.time_s.tolist():
            level += alpha * (pulse.drive_voltage(t_s, nominal_v) - level)
            expected.append(level)
        assert np.array_equal(wave.voltage_v, np.array(expected))
