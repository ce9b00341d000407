"""Rig-noise profiles: stream layout, ideality, and read-error models."""

import numpy as np
import pytest

from repro.circuits.pdn import ContactNoise
from repro.circuits.supply import SupplyNoise
from repro.errors import CalibrationError
from repro.resilience import DEFAULT_NOISY_RIG, IDEAL_RIG, RigNoiseProfile
from repro.rng import generator
from repro.soc.readnoise import BitErrorModel
from repro.units import millivolts


class TestStreamLayout:
    def test_four_streams_spawn_in_fixed_order(self):
        streams = IDEAL_RIG.streams(generator(42))
        draws = [
            streams.supply.random(),
            streams.contact.random(),
            streams.jtag.random(),
            streams.cp15.random(),
        ]
        assert len(set(draws)) == 4  # independent children

    def test_layout_invariant_to_zeroed_bounds(self):
        # Tightening one noise term to zero must not shift any other
        # term's stream: both profiles spawn all four children.
        noisy = DEFAULT_NOISY_RIG.streams(generator(42))
        quiet = RigNoiseProfile(
            name="jtag-only", jtag_bit_error_rate=1e-3
        ).streams(generator(42))
        assert noisy.supply.random() == quiet.supply.random()
        assert noisy.contact.random() == quiet.contact.random()
        assert noisy.jtag.random() == quiet.jtag.random()
        assert noisy.cp15.random() == quiet.cp15.random()

    def test_streams_reproducible_from_seed(self):
        first = DEFAULT_NOISY_RIG.streams(generator(7))
        second = DEFAULT_NOISY_RIG.streams(generator(7))
        assert first.cp15.random() == second.cp15.random()


class TestIdeality:
    def test_ideal_rig_is_ideal(self):
        assert IDEAL_RIG.is_ideal

    def test_default_noisy_rig_is_not(self):
        assert not DEFAULT_NOISY_RIG.is_ideal

    def test_any_single_bound_breaks_ideality(self):
        assert not RigNoiseProfile(
            supply=SupplyNoise(setpoint_tolerance_v=millivolts(1))
        ).is_ideal
        assert not RigNoiseProfile(
            contact=ContactNoise(jitter_ohm=0.001)
        ).is_ideal
        assert not RigNoiseProfile(jtag_bit_error_rate=1e-6).is_ideal
        assert not RigNoiseProfile(cp15_bit_error_rate=1e-6).is_ideal

    def test_ideal_rig_arms_no_read_noise(self):
        streams = IDEAL_RIG.streams(generator(1))
        assert IDEAL_RIG.jtag_noise(streams) is None
        assert IDEAL_RIG.cp15_noise(streams) is None

    def test_noisy_rig_arms_read_noise(self):
        streams = DEFAULT_NOISY_RIG.streams(generator(1))
        assert isinstance(DEFAULT_NOISY_RIG.jtag_noise(streams), BitErrorModel)
        assert isinstance(DEFAULT_NOISY_RIG.cp15_noise(streams), BitErrorModel)


class TestBitErrorModel:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(CalibrationError):
            BitErrorModel(0.5, generator(0))
        with pytest.raises(CalibrationError):
            BitErrorModel(-0.01, generator(0))

    def test_zero_rate_passes_data_through_untouched(self):
        model = BitErrorModel(0.0, generator(0))
        data = b"\xaa" * 64
        assert model.corrupt(data) is data
        assert model.bits_read == 0

    def test_corruption_is_seed_deterministic(self):
        data = bytes(range(256)) * 8
        first = BitErrorModel(0.01, generator(5)).corrupt(data)
        second = BitErrorModel(0.01, generator(5)).corrupt(data)
        assert first == second
        assert first != data

    def test_observed_rate_tracks_the_configured_rate(self):
        model = BitErrorModel(0.02, generator(9))
        data = b"\x00" * (1 << 16)
        out = model.corrupt(data)
        flipped = sum(bin(b).count("1") for b in out)
        assert model.bits_flipped == flipped
        assert model.bits_read == len(data) * 8
        assert flipped / model.bits_read == pytest.approx(0.02, rel=0.15)

    def test_each_read_draws_fresh_noise(self):
        model = BitErrorModel(0.02, generator(3))
        data = b"\x55" * 4096
        assert model.corrupt(data) != model.corrupt(data)

    def test_counters_emitted_when_observed(self):
        from repro import obs

        with obs.capture() as o:
            model = BitErrorModel(0.5 - 1e-9, generator(11))
            model.corrupt(b"\xff" * 128)
            snapshot = o.metrics.snapshot()
            assert snapshot["rig.bits_read"] == 128 * 8
            assert snapshot["rig.bit_flips"] == model.bits_flipped > 0
